// The m-step preconditioner, generic over splittings (eq. 2.6):
//
//   M_m^{-1} = (alpha_0 I + alpha_1 G + ... + alpha_{m-1} G^{m-1}) P^{-1},
//   G = P^{-1} Q,  K = P - Q.
//
// Applied by the m-step recurrence (Horner form):
//
//   z^(0) = 0;   z^(s) = z^(s-1) + P^{-1} (alpha_{m-s} r - K z^(s-1))
//
// which is s steps of the stationary method for K z = alpha r with a
// per-step right-hand-side coefficient — Algorithm 2 of the paper in its
// splitting-agnostic form.  With all alphas = 1 this is the unparametrized
// preconditioner (2.2); with the Jacobi splitting it is the
// Dubois–Greenbaum–Rodrigue truncated Neumann series.
#pragma once

#include <vector>

#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/linear_operator.hpp"
#include "split/splitting.hpp"

namespace mstep::par {
class Execution;  // par/execution.hpp — the threaded kernel policy
}

namespace mstep::core {

class MStepPreconditioner : public Preconditioner {
 public:
  /// `alphas[i]` is the coefficient of G^i; m = alphas.size() >= 1.
  /// `k` is the operator K z runs on: a solver pipeline passes its own
  /// outer-product view (serial, or shard::ShardedOperator over its strip
  /// partition).  `k`, the splitting and `exec` must outlive the
  /// preconditioner.  `exec` (optional) threads the vector ops — plus the
  /// P^{-1} application for the elementwise splittings.  Every view of K
  /// is bitwise CSR, so the result is BITWISE the serial sweep for any
  /// thread count.
  MStepPreconditioner(const la::LinearOperator& k,
                      const split::Splitting& split,
                      std::vector<double> alphas, KernelLog* log = nullptr,
                      const par::Execution* exec = nullptr);
  /// A temporary view would dangle.
  MStepPreconditioner(const la::LinearOperator&& k,
                      const split::Splitting& split,
                      std::vector<double> alphas, KernelLog* log = nullptr,
                      const par::Execution* exec = nullptr) = delete;

  [[nodiscard]] index_t size() const override { return k_->rows(); }
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] int steps() const override {
    return static_cast<int>(alphas_.size());
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const std::vector<double>& alphas() const { return alphas_; }

 private:
  const la::LinearOperator* k_;
  const split::Splitting* split_;
  std::vector<double> alphas_;
  KernelLog* log_;
  const par::Execution* exec_;  // nullptr = serial vector ops
  int ndiags_;  // cached diagonal count for the instrumentation stream
  mutable Vec tmp_;
  mutable Vec pz_;
};

/// Convenience: coefficients (1, 1, ..., 1) — the unparametrized m-step
/// preconditioner of eq. (2.2).
[[nodiscard]] std::vector<double> unparametrized_alphas(int m);

}  // namespace mstep::core
