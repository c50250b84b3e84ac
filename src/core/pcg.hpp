// Algorithm 1 of the paper: preconditioned conjugate gradients with the
// |u^{k+1} - u^k|_inf stopping test.
//
// The iteration is written once, in core/pcg_iterate.hpp, over three
// backends: pcg_solve runs it on one vector through par::Execution,
// pcg_solve_block on a row-interleaved block of up to
// la::simd::kSellSlice right-hand sides, and femsim's Finite Element
// Machine on each simulated processor's rows, which supplies only the
// machine: the exchanges, the priced flops and the sum and flag networks.
// All three replay the same operation sequence, so a block column is
// bitwise its single solve, and so is a one-processor machine solve.
// pcg_solve is written against la::LinearOperator, so the serial and
// partitioned views of the run storage, and CSR, flow through the same
// solve path; the CsrMatrix overloads below keep the historical call sites
// unchanged.  pcg_solve_block runs on the run storage (la::DiaMatrix)
// itself, the one matrix a block of right-hand sides is ever solved on.
#pragma once

#include <vector>

#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "util/span.hpp"

namespace mstep::par {
class Execution;  // par/execution.hpp
}

namespace mstep::core {

class MulticolorMStepSsor;  // core/multicolor_mstep.hpp

enum class StopRule {
  kDeltaInf,    // |u^{k+1} - u^k|_inf < tol  (the paper's test)
  kResidual2,   // ||r||_2 < tol * ||f||_2
};

struct PcgOptions {
  int max_iterations = 20000;
  double tolerance = 1e-4;
  StopRule stop_rule = StopRule::kDeltaInf;
  bool record_history = false;  // per-iteration stopping quantity
};

/// One row of the per-iteration convergence history (options.record_history):
/// the stopping quantity (delta_inf or ||r||_2 depending on the stop rule),
/// the CG step length, and the wall-clock attributed to the iteration.
/// Recording reads a timer but never touches the floating-point data flow,
/// so a history-recording solve is bitwise identical to a plain one.
struct IterationRecord {
  double value = 0.0;
  double alpha = 0.0;
  double seconds = 0.0;
};

struct PcgResult {
  Vec solution;
  int iterations = 0;
  bool converged = false;
  double final_delta_inf = 0.0;
  double final_residual2 = 0.0;
  long long inner_products = 0;   // dot products executed
  long long precond_applications = 0;
  std::vector<IterationRecord> history;
};

/// Reusable scratch for pcg_solve and pcg_solve_block: the residual r,
/// the search direction p, and zw, which holds z = M r and w = K p in turn
/// (they are never live at once; Preconditioner::apply only writes z).
/// One vector of n entries each, or an n x la::simd::kSellSlice
/// row-interleaved block for pcg_solve_block.  The iterates live in the
/// results' solution vectors.  Passing one lets a caller run many solves
/// with no per-solve allocation beyond the returned solutions — the batch
/// engine keeps one per worker lane.  Vectors are resized on demand and
/// keep their capacity across solves; the contents are overwritten, never
/// read.
struct PcgWorkspace {
  Vec r, p, zw;
};

/// Solve K u = f with preconditioner M (Algorithm 1).  `u0` is the initial
/// guess (zero if empty).  Instrumentation callbacks go to `log` when
/// non-null.  `exec` (optional) threads the vector kernels (a threaded `k`
/// is a shard::ShardedOperator); the deterministic blocked reductions make
/// the result BITWISE identical to the serial solve for any thread count.
/// `workspace` (optional) supplies the solve scratch so repeated solves do
/// not allocate.  A breakdown (p^T K p <= 0) stops the solve unconverged.
/// Throws std::invalid_argument on dimension mismatches, a non-positive
/// tolerance, or a non-positive iteration limit.
[[nodiscard]] PcgResult pcg_solve(const la::LinearOperator& k, const Vec& f,
                                  const Preconditioner& m,
                                  const PcgOptions& options = {},
                                  KernelLog* log = nullptr,
                                  const Vec& u0 = {},
                                  const par::Execution* exec = nullptr,
                                  PcgWorkspace* workspace = nullptr);

[[nodiscard]] PcgResult pcg_solve(const la::CsrMatrix& k, const Vec& f,
                                  const Preconditioner& m,
                                  const PcgOptions& options = {},
                                  KernelLog* log = nullptr,
                                  const Vec& u0 = {},
                                  const par::Execution* exec = nullptr,
                                  PcgWorkspace* workspace = nullptr);

/// pcg_solve for up to la::simd::kSellSlice right-hand sides at once, with
/// the Algorithm-2 sweep as M and a zero initial guess: the same iteration
/// body over the block backend, on the run storage `k` (the pipeline's
/// store; the sweep reads the same runs).  The columns travel as one
/// row-interleaved block, so every SpMV and sweep loads each matrix entry
/// once for all of them; each column keeps its own alpha, beta, rho,
/// counters and stopping test, and stops (is frozen) at its own iteration.
/// results[c] is BITWISE pcg_solve(la::DiaOperator(k), fs[c], m, options)
/// on the serial kernels — solution, iterations, final_delta_inf,
/// final_residual2, counters and history values.  The right-hand sides
/// double as the final residuals' scratch: their contents on return are
/// unspecified.  `log` hears each live column's kernel stream.  Throws
/// std::invalid_argument as pcg_solve does, and for 0 or more than
/// kSellSlice right-hand sides.
[[nodiscard]] std::vector<PcgResult> pcg_solve_block(
    const la::DiaMatrix& k, util::Span<Vec> fs,
    const MulticolorMStepSsor& m, const PcgOptions& options = {},
    KernelLog* log = nullptr, PcgWorkspace* workspace = nullptr);

/// Plain conjugate gradients (M = I, the paper's m = 0 baseline).
[[nodiscard]] PcgResult cg_solve(const la::LinearOperator& k, const Vec& f,
                                 const PcgOptions& options = {},
                                 KernelLog* log = nullptr, const Vec& u0 = {},
                                 const par::Execution* exec = nullptr);

[[nodiscard]] PcgResult cg_solve(const la::CsrMatrix& k, const Vec& f,
                                 const PcgOptions& options = {},
                                 KernelLog* log = nullptr, const Vec& u0 = {},
                                 const par::Execution* exec = nullptr);

}  // namespace mstep::core
