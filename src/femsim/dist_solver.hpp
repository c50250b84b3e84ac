// Distributed m-step SSOR PCG on the Finite Element Machine simulator —
// Algorithm 1 driving Algorithm 3 (the per-processor multicolor m-step
// SSOR of Section 3.2).
//
// Neither algorithm is written here.  Algorithm 1 is core's one iteration
// body (core/pcg_iterate.hpp), run by every simulated processor on its
// own rows through a third backend beside pcg_solve's vector and
// pcg_solve_block's block.  Algorithm 3 is Algorithm 2 on each
// processor's share of the equations, with border records exchanged
// after each geometric colour, so its arithmetic is the library's one
// sweep engine: one core::MulticolorSweepPlan over the processor owner
// map, whose phase schedule each processor walks, running the phase body
// on its own part and vectors.  What this file supplies is the machine:
// the owner map, the per-processor row lists and flop prices, the
// exchange schedule, and the sum and flag networks the backend's
// reductions and stopping decision run on.
//
// Numerics: each simulated processor owns the equations of its assigned
// nodes.  Inner products are deterministic rank-ordered reductions over the
// flag/sum network; the convergence test is the signal-flag protocol
// ("each processor raises its convergence flag whenever its portion of u
// values are within the stopping criterion").  Border values travel as one
// packaged record per neighbour per geometric colour, exactly the
// packaging the paper recommends ("think of the two equations at the same
// node as being the same color").  A zero load stops converged before
// the first step with nothing on the clock: core's zero-residual guard
// reads ||f||, which every processor holds, off the networks.
//
// Exchange schedule.  What travels comes from the plan's halo census,
// shard::HaloPlan over the processor owner map: processor p sends each
// q in neighbors(p) the rows of the finished classes that q reads from p
// (recv_rows(q, p, c)) and reads back recv_rows(p, q, c).  When it
// travels is fixed here.  Because same-colour nodes never couple and the
// u/v pair of one node lives on one processor, the operator stays EXACTLY
// the sequential one when borders are exchanged after every completed
// geometric colour: forward after classes (0,1), (2,3), (4,5); backward
// after (5,4) and (3,2) — five record exchanges per neighbour per step.
// (The scanned Algorithm 3 is ambiguous about the backward trigger parity;
// this is the schedule that preserves the operator, consistent with
// Table 3 reporting identical iteration counts for 1, 2 and 5 processors.)
#pragma once

#include <memory>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "fem/plane_stress.hpp"
#include "femsim/assignment.hpp"
#include "femsim/machine.hpp"

namespace mstep::femsim {

struct DistOptions {
  int m = 0;                  // preconditioner steps; 0 = plain CG
  bool parametrized = true;   // least-squares alphas vs all ones
  double tolerance = 1e-4;    // on |u^{k+1}-u^k|_inf (flag network test)
  int max_iterations = 20000;
  FemCosts costs;
};

struct DistResult {
  Vec solution;  // original (pre-colouring) equation ordering
  int iterations = 0;
  bool converged = false;
  double simulated_seconds = 0.0;
  double max_compute_seconds = 0.0;
  double max_comm_seconds = 0.0;
  double max_idle_seconds = 0.0;
  long long total_records = 0;
};

/// Builds the system and its sweep plan once and runs distributed solves
/// of any m on them.  The matrix data is shared read-only across the
/// simulated processors, each reading its own part of the plan.
///
/// Two construction paths: the paper's rectangular plate (mesh + Figure 3/5
/// assignment), and the general path — any coloured system with an
/// ownership map — which serves irregular regions (Section 5's second
/// half: "for array machines [the grid] must also be distributed to the
/// processors in light of this coloring").  The general path requires the
/// colouring to pair each node's two dofs into adjacent classes (2g, 2g+1),
/// which both six_color_classes and greedy_classes produce; this is what
/// keeps the per-colour exchange schedule operator-exact.
class DistributedPlateSolver {
 public:
  DistributedPlateSolver(const fem::PlateMesh& mesh, const fem::Material& mat,
                         const fem::EdgeLoad& load,
                         const Assignment& assignment);

  /// General path: a coloured system, its right-hand side (coloured
  /// ordering) and the owning processor of every coloured equation
  /// (std::invalid_argument unless each is in [0, nprocs)).
  DistributedPlateSolver(color::ColoredSystem cs, Vec f_colored,
                         const std::vector<int>& owner_of_eq, int nprocs);

  [[nodiscard]] DistResult solve(const DistOptions& options) const;

  [[nodiscard]] const color::ColoredSystem& colored_system() const {
    return *cs_;
  }
  [[nodiscard]] int nprocs() const { return static_cast<int>(pdata_.size()); }
  /// The sweep plan over the processor owner map, one part per processor.
  [[nodiscard]] const core::MulticolorSweepPlan& sweep_plan() const {
    return *plan_;
  }

  /// Per-link record counts of the last solve (Figure 4 census) — filled
  /// into the matrix provided by the caller of solve_with_traffic.
  [[nodiscard]] DistResult solve_with_traffic(
      const DistOptions& options,
      std::vector<std::vector<long long>>* traffic) const;

 private:
  struct ProcData {
    std::vector<index_t> owned;  // global colored ids, ascending
    long long nnz_owned = 0;
    std::vector<long long> rows;       // per class, owned rows
    std::vector<long long> nnz_lower;  // per class, owned rows' entries
    std::vector<long long> nnz_upper;
  };

  struct ProcBackend;  // Algorithm 1 on one processor (dist_solver.cpp)

  void build_proc_data(const std::vector<int>& owner_of_eq, int nprocs);

  // On the heap: the plan and its store point into it.
  std::unique_ptr<const color::ColoredSystem> cs_;
  Vec f_colored_;
  std::unique_ptr<const core::MulticolorSweepPlan> plan_;
  std::vector<ProcData> pdata_;
};

}  // namespace mstep::femsim
