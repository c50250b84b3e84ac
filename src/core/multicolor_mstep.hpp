// Algorithm 2 of the paper: the m-step multicolor SSOR preconditioner with
// the Conrad–Wallach auxiliary vector.
//
// One m-step SSOR application is m symmetric multicolor SOR sweeps on
// K z = alpha_s r from z = 0.  A naive symmetric sweep computes both the
// strictly-lower and strictly-upper coupling sums in each half-sweep.  The
// Conrad–Wallach trick (1979) stores the lower sums computed during the
// forward half in an auxiliary vector y and reuses them in the backward
// half (and vice versa across steps), so each full symmetric sweep performs
// only ONE traversal of the off-diagonal entries — "only as expensive as
// one Multicolor SOR iteration" (Section 3).
//
// Two further reuse opportunities from the paper are implemented exactly:
//  * the backward half-sweep skips the last colour class (its value would
//    be identical to the forward value just computed), and
//  * the backward update of the FIRST class is deferred: within the step
//    loop the next forward pass performs it (only the alpha coefficient
//    differs, and nobody reads the value in between), and after the last
//    step an explicit final solve with alpha_0 completes it — the "(3)"
//    line after the loop in Algorithms 2/3.
//
// The operator is mathematically identical to
// MStepPreconditioner(SsorSplitting(omega = 1)) applied to the
// colour-permuted matrix; the tests verify the equivalence to rounding.
//
// Storage.  The sweep reads the solve's one matrix storage, la::DiaMatrix:
// constant-offset row runs — the paper's §3.1 diagonal storage, cut to the
// rows that have it — over the CSR rows.  The store is cut at every range
// bound of every (part, class) cell, so each run lies in one cell, and for
// each cell the plan keeps two views of its runs (la::SweepSegments): the
// lower half sums each run's leading lower-class terms, the upper half its
// trailing upper-class terms — a term begin and a count over the same
// stored offsets and values.  The rows no usable run covers keep their
// half as SELL slices.  One fused kernel, la::simd::sweep_segments, sums 4
// rows at a time and applies the class update in place; its block form
// reads the same views for apply_block.  Every row keeps its CSR term
// order and row_dot's 8-lane schedule, and negating the finished sum
// commutes with rounding, so each row's value is bitwise
// -row_dot(segment) whichever layout holds it.
//
// This is the only implementation of the sweep: an immutable, shareable
// MulticolorSweepPlan over an owner map (owner[row] in [0, parts) on the
// colour-permuted rows), and engines that own the coefficients and
// per-call scratch.  The threaded solve's strips (shard::ShardPlan, one
// range per cell) are one owner map; the Finite Element Machine's
// processor assignment is another, each processor running the plan's
// phase body on its own part and vectors (femsim/dist_solver.hpp).  With
// a pool, N parts run each phase as one pool dispatch on the one shared z;
// without one they run inline, in order — with one part that is the
// serial kernel.  Each row's bits do not depend on its layout and the
// phase order is the class order, so every owner map gives the one-part
// bits and the same KernelLog stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/dia_matrix.hpp"
#include "la/sweep_segments.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "shard/halo.hpp"
#include "shard/partition.hpp"

namespace mstep::core {

/// One phase of Algorithm 2's schedule: which class to update (or, for
/// kSave, whose upper sums to save) and the coefficient of its step.
struct SweepPhase {
  enum Kind { kForward, kBackward, kSave, kFinal } kind;
  int cls;
  double alpha;
};

/// The immutable part of Algorithm 2 on one coloured system and one owner
/// map — what depends on the matrix and the partition, not on the
/// coefficients; engines share it through a
/// std::shared_ptr<const MulticolorSweepPlan>.
struct MulticolorSweepPlan {
  /// `cs` must remain alive at its address, with diagonal class blocks;
  /// `owner[row]` is the part of each row of `cs`, in [0, parts); `store`
  /// is la::DiaMatrix::from_csr(cs.matrix, cuts) with every range bound
  /// among the cuts, or null to build one cut at exactly those bounds.
  /// Throws std::invalid_argument if any of these fails.
  MulticolorSweepPlan(const color::ColoredSystem& cs,
                      const std::vector<int>& owner, int parts,
                      std::shared_ptr<const la::DiaMatrix> store = nullptr);
  /// The owner map of a strip partition cut from cs.class_start.
  MulticolorSweepPlan(const color::ColoredSystem& cs,
                      const shard::ShardPlan& strips,
                      std::shared_ptr<const la::DiaMatrix> store = nullptr)
      : MulticolorSweepPlan(cs, strips.owners(), strips.num_shards(),
                            std::move(store)) {}
  /// Convenience: shard::ShardPlan::build(cs.class_start, strips) and its
  /// own store.
  explicit MulticolorSweepPlan(const color::ColoredSystem& cs,
                               int strips = 1);

  [[nodiscard]] int num_parts() const { return parts; }
  /// Part `part`'s rows in class `c`: ascending, disjoint ranges.
  [[nodiscard]] const std::vector<la::RowSpan>& ranges(int part,
                                                       int c) const {
    return cell_ranges[cell(part, c)];
  }

  /// Algorithm 2's phase schedule for m = alphas.size() >= 1 steps, the
  /// reuses above included: step s = 1..m runs, with alphas[m - s], a
  /// forward phase per class 0..nc-1, a backward phase per class
  /// nc-2..1, and the save of class 0's upper sums; then the final class-0
  /// solve with alphas[0].  Calls run(phase) for each, in order.
  template <typename Run>
  void for_each_phase(const std::vector<double>& alphas,
                      const Run& run) const {
    const int m = static_cast<int>(alphas.size());
    const int nc = cs->num_classes();
    for (int s = 1; s <= m; ++s) {
      const obs::Span sweep_span("sweep");
      const double a = alphas[m - s];
      for (int c = 0; c < nc; ++c) run(SweepPhase{SweepPhase::kForward, c, a});
      for (int c = nc - 2; c >= 1; --c) {
        run(SweepPhase{SweepPhase::kBackward, c, a});
      }
      run(SweepPhase{SweepPhase::kSave, 0, a});
    }
    run(SweepPhase{SweepPhase::kFinal, 0, alphas[0]});
  }

  /// Part `part`'s share of `phase` on the caller's r, z and the
  /// Conrad–Wallach y — one vector each, or with `block` n x
  /// la::simd::kSellSlice row-interleaved blocks.  Writes z and y only at
  /// the part's rows of the phase's class; its segment sums read z only at
  /// rows of other classes.
  void run_part(const SweepPhase& phase, int part, const double* r,
                double* z, double* y, bool block = false) const;

  const color::ColoredSystem* cs;
  int parts;
  color::RowSplits splits;  // diagonal + lower/upper row splits
  shard::HaloPlan halo;     // rows parts read from each other
  std::shared_ptr<const la::DiaMatrix> store;
  // Per part and class (index part * classes + class): the part's ranges
  // and their strictly-lower / strictly-upper row segments (the store's
  // runs plus SELL leftovers, la::SweepSegments).
  std::vector<std::vector<la::RowSpan>> cell_ranges;
  std::vector<la::SweepSegments> lower;
  std::vector<la::SweepSegments> upper;
  // Prices each class in the KernelLog: per class, the distinct offsets
  // that hold a nonzero, counted from the segments above.
  color::ClassDiagonalCensus census;

 private:
  [[nodiscard]] std::size_t cell(int part, int c) const {
    return static_cast<std::size_t>(part) * cs->num_classes() + c;
  }
};

/// One Algorithm-2 engine: a shared plan, the coefficients, and this
/// engine's scratch.  Engines sharing a plan may apply concurrently from
/// different threads.
class MulticolorMStepSsor : public Preconditioner {
 public:
  /// The serial sweep on a private one-part plan.  `alphas[i]` is the
  /// coefficient of G^i, m = alphas.size() >= 1 (throws
  /// std::invalid_argument otherwise).
  MulticolorMStepSsor(const color::ColoredSystem& cs,
                      std::vector<double> alphas, KernelLog* log = nullptr);
  /// A private plan on `strips`, run on `pool` (which must outlive the
  /// engine).
  MulticolorMStepSsor(const color::ColoredSystem& cs,
                      std::vector<double> alphas,
                      const shard::ShardPlan& strips, par::ThreadPool& pool,
                      KernelLog* log = nullptr);
  /// An engine over a shared plan.  With `pool` and two or more parts
  /// each phase is one pool dispatch; without one the parts run inline,
  /// in order.  `log` (optional) receives the kernel stream.
  MulticolorMStepSsor(std::shared_ptr<const MulticolorSweepPlan> plan,
                      std::vector<double> alphas,
                      par::ThreadPool* pool = nullptr,
                      KernelLog* log = nullptr);

  [[nodiscard]] index_t size() const override { return plan_->cs->size(); }
  void apply(const Vec& r, Vec& z) const override;
  /// apply() on an n x la::simd::kSellSlice row-interleaved block: one
  /// pass over each class's segments (la::simd::block_sweep_segments,
  /// part by part) serves every column, and column c of z is bitwise
  /// apply() of column c of r.  Runs serially on the calling thread
  /// whatever the plan's parts.  The kernel log hears `columns` copies
  /// of apply()'s stream — the live columns' census.
  void apply_block(const Vec& r, Vec& z, int columns) const;
  [[nodiscard]] int steps() const override {
    return static_cast<int>(alphas_.size());
  }
  /// "multicolor-ssor-m{m}" with one part, "...-s{N}" with N parts.
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const std::shared_ptr<const MulticolorSweepPlan>& plan()
      const {
    return plan_;
  }
  [[nodiscard]] const shard::HaloPlan& halo() const { return plan_->halo; }

  /// Off-diagonal entry traversals per apply() — the quantity the
  /// Conrad–Wallach trick halves.  Exposed for the ablation bench.
  [[nodiscard]] long long offdiag_traversals_per_apply() const;

 private:
  /// Walks the plan's phase schedule, calling run(phase) for each and
  /// narrating `columns` copies of the kernel stream.
  template <typename Run>
  void walk(const Run& run, int columns) const;
  void run_phase(const SweepPhase& phase, const Vec& r, Vec& z) const;

  std::shared_ptr<const MulticolorSweepPlan> plan_;
  std::vector<double> alphas_;
  par::ThreadPool* pool_;
  KernelLog* log_;

  // apply() is logically const but stages per-call state here: the
  // Conrad–Wallach auxiliary vector (a block in apply_block).
  mutable Vec y_;
};

}  // namespace mstep::core
