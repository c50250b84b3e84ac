// Baseline preconditioners from the literature the paper compares against
// or builds on, expressed through the m-step framework:
//
//  * Dubois, Greenbaum & Rodrigue (1979): truncated Neumann series for
//    K^{-1} — the UNparametrized m-step method on the Jacobi splitting.
//  * Johnson, Micchelli & Paul (1982): parametrized Neumann series — the
//    least-squares m-step method on the Jacobi splitting, with the spectrum
//    interval estimated from the symmetrically scaled matrix.
//
// Both return ready-to-use preconditioners owning their splitting.
#pragma once

#include <memory>

#include "core/mstep.hpp"
#include "core/params.hpp"

namespace mstep::core {

/// An m-step preconditioner bundled with the splitting and the operator
/// view it uses (keeps the lifetime management in one object).  `k` must
/// outlive it.
class OwningMStepPreconditioner : public Preconditioner {
 public:
  OwningMStepPreconditioner(const la::CsrMatrix& k,
                            std::unique_ptr<split::Splitting> split,
                            std::vector<double> alphas,
                            KernelLog* log = nullptr)
      : split_(std::move(split)), op_(k),
        inner_(op_, *split_, std::move(alphas), log) {}
  // inner_ holds op_'s address.
  OwningMStepPreconditioner(const OwningMStepPreconditioner&) = delete;
  OwningMStepPreconditioner& operator=(const OwningMStepPreconditioner&) =
      delete;

  [[nodiscard]] index_t size() const override { return inner_.size(); }
  void apply(const Vec& r, Vec& z) const override { inner_.apply(r, z); }
  [[nodiscard]] int steps() const override { return inner_.steps(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] const std::vector<double>& alphas() const {
    return inner_.alphas();
  }

 private:
  std::unique_ptr<split::Splitting> split_;
  la::CsrOperator op_;
  MStepPreconditioner inner_;
};

/// Dubois–Greenbaum–Rodrigue truncated Neumann preconditioner
/// (m Jacobi steps, all coefficients 1).  The Neumann series requires
/// rho(I - D^{-1}K) < 1; when the Jacobi spectrum reaches beyond 2 (as it
/// does for the plane-stress plate) the splitting is automatically damped,
/// P = D / theta with theta chosen so the scaled spectrum tops out at 1.9.
/// DGR's own setting (Jacobi-scaled Laplacians) is left untouched.
[[nodiscard]] std::unique_ptr<Preconditioner> make_neumann_preconditioner(
    const la::CsrMatrix& k, int m, KernelLog* log = nullptr);

/// Johnson–Micchelli–Paul parametrized Jacobi-polynomial preconditioner
/// (least-squares alphas on the estimated Jacobi spectrum interval).
[[nodiscard]] std::unique_ptr<Preconditioner> make_jmp_preconditioner(
    const la::CsrMatrix& k, int m, KernelLog* log = nullptr);

}  // namespace mstep::core
