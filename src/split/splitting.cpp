#include "split/splitting.hpp"

#include <cassert>
#include <stdexcept>

#include "la/simd.hpp"

namespace mstep::split {

JacobiSplitting::JacobiSplitting(const la::CsrMatrix& k) {
  const Vec d = k.diagonal();
  inv_diag_.resize(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] <= 0.0) {
      throw std::invalid_argument("JacobiSplitting: non-positive diagonal");
    }
    inv_diag_[i] = 1.0 / d[i];
  }
}

void JacobiSplitting::apply_pinv(const Vec& x, Vec& y) const {
  assert(x.size() == inv_diag_.size());
  la::hadamard(inv_diag_, x, y);
}

SsorSplitting::SsorSplitting(const la::CsrMatrix& k, double omega)
    : k_(&k), diag_(k.diagonal()), omega_(omega) {
  if (omega <= 0.0 || omega >= 2.0) {
    throw std::invalid_argument("SsorSplitting: omega must be in (0, 2)");
  }
}

void SsorSplitting::apply_pinv(const Vec& x, Vec& y) const {
  const index_t n = k_->rows();
  assert(static_cast<index_t>(x.size()) == n);
  const auto& rp = k_->row_ptr();
  const auto& col = k_->col_idx();
  const auto& val = k_->values();

  // z = (D - omega L)^{-1} x  (forward substitution; L = strictly-lower
  // part with the sign convention K = D - L - U, so L_ij = -K_ij).  The
  // scratch persists across applies so repeated applications (the m-step
  // recurrence, the batch engine's inner loop) do not allocate.
  fwd_.resize(n);
  Vec& z = fwd_;
  for (index_t i = 0; i < n; ++i) {
    double s = x[i];
    for (index_t t = rp[i]; t < rp[i + 1] && col[t] < i; ++t) {
      s -= omega_ * val[t] * z[col[t]];
    }
    z[i] = s / diag_[i];
  }
  // w = D z, then y = omega (2 - omega) (D - omega U)^{-1} w (backward).
  y.resize(n);
  const double scale = omega_ * (2.0 - omega_);
  for (index_t i = n - 1; i >= 0; --i) {
    double s = diag_[i] * z[i];
    for (index_t t = rp[i + 1]; t-- > rp[i] && col[t] > i;) {
      s -= omega_ * val[t] * y[col[t]];
    }
    y[i] = s / diag_[i];
  }
  for (index_t i = 0; i < n; ++i) y[i] *= scale;
}

void RichardsonSplitting::apply_pinv(const Vec& x, Vec& y) const {
  assert(static_cast<index_t>(x.size()) == n_);
  y.resize(n_);
  la::simd::scale_copy(theta_, x.data(), y.data(), x.size());
}

}  // namespace mstep::split
