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

namespace mstep::core {

class MStepPreconditioner : public Preconditioner {
 public:
  /// `alphas[i]` is the coefficient of G^i; m = alphas.size() >= 1.
  /// `k` is the operator K z runs on: a solver pipeline passes its own
  /// serial view.  `k` and the splitting must outlive the preconditioner.
  /// The engine runs on the calling thread whatever the pipeline's
  /// `threads`: these splittings are the paper's baselines, and the pool
  /// dispatches of its short vector ops cost more than they save.
  MStepPreconditioner(const la::LinearOperator& k,
                      const split::Splitting& split,
                      std::vector<double> alphas, KernelLog* log = nullptr);
  /// A temporary view would dangle.
  MStepPreconditioner(const la::LinearOperator&& k,
                      const split::Splitting& split,
                      std::vector<double> alphas,
                      KernelLog* log = nullptr) = delete;

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
  int ndiags_;  // cached diagonal count for the instrumentation stream
  mutable Vec tmp_;
  mutable Vec pz_;
};

/// Convenience: coefficients (1, 1, ..., 1) — the unparametrized m-step
/// preconditioner of eq. (2.2).
[[nodiscard]] std::vector<double> unparametrized_alphas(int m);

}  // namespace mstep::core
