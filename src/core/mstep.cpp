#include "core/mstep.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "par/execution.hpp"

namespace mstep::core {

MStepPreconditioner::MStepPreconditioner(const la::CsrMatrix& k,
                                         const split::Splitting& split,
                                         std::vector<double> alphas,
                                         KernelLog* log,
                                         const par::Execution* exec,
                                         const shard::ShardPlan* strips)
    : k_(&k), split_(&split), alphas_(std::move(alphas)), log_(log),
      exec_(exec),
      ndiags_(log ? static_cast<int>(k.num_nonzero_diagonals()) : 0) {
  if (alphas_.empty()) {
    throw std::invalid_argument("MStepPreconditioner: need m >= 1");
  }
  if (split.size() != k.rows()) {
    throw std::invalid_argument("MStepPreconditioner: size mismatch");
  }
  if (strips) {
    if (!exec || !exec->pool()) {
      throw std::invalid_argument(
          "MStepPreconditioner: strips need a parallel execution");
    }
    strip_k_.emplace(k, *strips, *exec->pool());
  }
}

void MStepPreconditioner::apply(const Vec& r, Vec& z) const {
  const par::Execution& ex = exec_ ? *exec_ : par::serial_execution();
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
      ex.scale_copy(a, r, tmp_);
      if (log_) log_->vec_op(n, 1);
    } else {
      // tmp = alpha * r - K z
      ex.scale_copy(a, r, tmp_);
      if (strip_k_) {
        strip_k_->multiply_sub(z, tmp_);
      } else {
        k_->multiply_sub(z, tmp_);
      }
      if (log_) {
        log_->vec_op(n, 2);
        log_->spmv_diagonals(n, ndiags_);
      }
    }
    split_->apply_pinv(tmp_, pz_, ex);
    ex.axpy(1.0, pz_, z);
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
