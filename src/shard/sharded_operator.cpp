#include "shard/sharded_operator.hpp"

#include <cassert>

#include "la/simd.hpp"
#include "obs/trace.hpp"

namespace mstep::shard {

index_t ShardedOperator::rows() const {
  if (csr_) return csr_->rows();
  if (dia_) return dia_->rows();
  return sell_->rows();
}

index_t ShardedOperator::num_nonzero_diagonals() const {
  if (csr_) return csr_->num_nonzero_diagonals();
  if (dia_) return dia_->num_diagonals();
  return sell_->num_nonzero_diagonals();
}

void ShardedOperator::run(const Vec& x, Vec& y, bool subtract) const {
  const index_t n = rows();
  assert(static_cast<index_t>(x.size()) == n);
  const int ns = plan_->num_shards();
  const int nc = plan_->num_classes();

  if (subtract) {
    assert(static_cast<index_t>(y.size()) == n);
  } else if (dia_) {
    y.assign(n, 0.0);  // DIA accumulates diagonal triads into y
  } else {
    y.resize(n);
  }

  if (sell_) {
    // Sigma-sorted slices interleave rows across the ownership map;
    // partition the slice range itself with the same equal-strip rule.
    const index_t num_slices = sell_->num_slices();
    pool_->for_each(0, ns, [&](index_t shard_idx) {
      const obs::Span shard_span("shard");
      const int s = static_cast<int>(shard_idx);
      const index_t b = (static_cast<index_t>(s) * num_slices + ns - 1) / ns;
      const index_t e =
          (static_cast<index_t>(s + 1) * num_slices + ns - 1) / ns;
      la::simd::sell_spmv_slices(sell_->view(), x.data(), y.data(), b, e,
                                 subtract);
    });
    return;
  }

  pool_->for_each(0, ns, [&](index_t shard_idx) {
    const obs::Span shard_span("shard");
    const int s = static_cast<int>(shard_idx);
    for (int c = 0; c < nc; ++c) {
      const index_t b = plan_->begin(s, c);
      const index_t e = plan_->end(s, c);
      if (b == e) continue;
      if (csr_) {
        la::simd::csr_spmv_rows(csr_->row_ptr().data(),
                                csr_->col_idx().data(),
                                csr_->values().data(), x.data(), y.data(), b,
                                e, subtract);
        continue;
      }
      dia_->multiply_rows(x, y, b, e, subtract);
    }
  });
}

}  // namespace mstep::shard
