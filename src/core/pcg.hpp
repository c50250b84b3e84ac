// Algorithm 1 of the paper: preconditioned conjugate gradients with the
// |u^{k+1} - u^k|_inf stopping test.
//
// The solver is written against la::LinearOperator, so CSR and
// diagonal-storage (DIA) matrices flow through the same solve path; the
// CsrMatrix overloads below keep the historical call sites unchanged.
#pragma once

#include <vector>

#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/csr_matrix.hpp"
#include "la/linear_operator.hpp"

namespace mstep::par {
class Execution;  // par/execution.hpp
}

namespace mstep::core {

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

/// Reusable scratch for pcg_solve: the solve-sized vectors Algorithm 1
/// needs.  Passing one lets a caller run many solves with no per-solve
/// allocation beyond the returned solution — the batch engine keeps one
/// arena per worker lane.  Vectors are resized on demand and keep their
/// capacity across solves; the contents are overwritten, never read.
struct PcgWorkspace {
  Vec u, r, z, p, w;
};

/// Solve K u = f with preconditioner M (Algorithm 1).  `u0` is the initial
/// guess (zero if empty).  Instrumentation callbacks go to `log` when
/// non-null.  `exec` (optional) threads the vector kernels (a threaded `k`
/// is a shard::ShardedOperator); the deterministic blocked reductions make
/// the result BITWISE identical to the serial solve for any thread count.
/// `workspace` (optional) supplies the solve scratch so repeated solves do
/// not allocate.  Throws
/// std::invalid_argument on dimension mismatches, a non-positive
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
