#include "core/mstep.hpp"

#include <cassert>
#include <stdexcept>

#include "la/simd.hpp"
#include "obs/trace.hpp"

namespace mstep::core {

MStepPreconditioner::MStepPreconditioner(const la::LinearOperator& k,
                                         const split::Splitting& split,
                                         std::vector<double> alphas,
                                         KernelLog* log)
    : k_(&k), split_(&split), alphas_(std::move(alphas)), log_(log),
      ndiags_(log ? static_cast<int>(k.num_nonzero_diagonals()) : 0) {
  if (alphas_.empty()) {
    throw std::invalid_argument("MStepPreconditioner: need m >= 1");
  }
  if (split.size() != k.rows()) {
    throw std::invalid_argument("MStepPreconditioner: size mismatch");
  }
}

void MStepPreconditioner::apply(const Vec& r, Vec& z) const {
  const index_t n = k_->rows();
  assert(static_cast<index_t>(r.size()) == n);
  const int m = static_cast<int>(alphas_.size());

  z.assign(n, 0.0);
  tmp_.resize(n);
  for (int s = 1; s <= m; ++s) {
    const obs::Span sweep_span("sweep");
    const double a = alphas_[m - s];
    if (s == 1) {
      // z = 0, so the residual is just alpha * r.
      la::simd::scale_copy(a, r.data(), tmp_.data(), r.size());
      if (log_) log_->vec_op(n, 1);
    } else {
      // tmp = alpha * r - K z
      la::simd::scale_copy(a, r.data(), tmp_.data(), r.size());
      k_->multiply_sub(z, tmp_);
      if (log_) {
        log_->vec_op(n, 2);
        log_->spmv_diagonals(n, ndiags_);
      }
    }
    split_->apply_pinv(tmp_, pz_);
    la::axpy(1.0, pz_, z);
    if (log_) {
      log_->vec_op(n, 1);
      log_->end_precond_step();
    }
  }
}

std::string MStepPreconditioner::name() const {
  return "mstep-" + split_->name() + "-m" + std::to_string(alphas_.size());
}

std::vector<double> unparametrized_alphas(int m) {
  return std::vector<double>(static_cast<std::size_t>(m), 1.0);
}

}  // namespace mstep::core
