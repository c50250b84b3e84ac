#include "par/execution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "la/simd.hpp"

// Every threaded chunk body below delegates to the same la/simd.hpp kernel
// the serial twin uses, so serial == threaded == SIMD-on == SIMD-off holds
// by construction: partitioning only decides WHO computes an element or a
// block, never the operation sequence that computes it.

namespace mstep::par {

namespace {

/// Reduction scratch for `nblocks` block partials, zeroed.  One buffer per
/// calling thread, so callers sharing an Execution never share it; pool
/// workers write into the caller's buffer through the job body.
std::vector<double>& block_partials(index_t nblocks) {
  thread_local std::vector<double> partials;
  partials.assign(static_cast<std::size_t>(nblocks), 0.0);
  return partials;
}

}  // namespace

Execution::Execution(int threads) {
  if (threads < 0) {
    throw std::invalid_argument("Execution: thread count must be >= 0");
  }
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

double Execution::dot(const Vec& x, const Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) return la::dot(x, y);

  const auto block = static_cast<index_t>(la::kReductionBlock);
  const index_t nblocks = (n + block - 1) / block;
  std::vector<double>& partials = block_partials(nblocks);
  pool_->for_each(0, nblocks, [&](index_t k) {
    const auto b = static_cast<std::size_t>(k) * la::kReductionBlock;
    partials[k] = la::detail::dot_range(
        x, y, b, std::min(x.size(), b + la::kReductionBlock));
  });
  // Combine in block order — exactly la::dot's serial combination.
  double s = 0.0;
  for (index_t k = 0; k < nblocks; ++k) s += partials[k];
  return s;
}

double Execution::nrm2(const Vec& x) const { return std::sqrt(dot(x, x)); }

void Execution::axpy(double a, const Vec& x, Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) {
    la::axpy(a, x, y);
    return;
  }
  pool_->for_range(0, n, [&](index_t b, index_t e) {
    la::simd::axpy(a, x.data() + b, y.data() + b,
                   static_cast<std::size_t>(e - b));
  });
}

void Execution::xpay(const Vec& x, double b, Vec& y) const {
  assert(x.size() == y.size());
  const auto n = static_cast<index_t>(x.size());
  if (!pool_ || n < kSerialCutoff) {
    la::xpay(x, b, y);
    return;
  }
  pool_->for_range(0, n, [&](index_t lo, index_t hi) {
    la::simd::xpay(x.data() + lo, b, y.data() + lo,
                   static_cast<std::size_t>(hi - lo));
  });
}

double Execution::step_update_max(double a, const Vec& p, Vec& u) const {
  assert(p.size() == u.size());
  const auto n = static_cast<index_t>(p.size());
  if (!pool_ || n < kSerialCutoff) {
    return la::simd::step_update_max(a, p.data(), u.data(), p.size());
  }
  const auto block = static_cast<index_t>(la::kReductionBlock);
  const index_t nblocks = (n + block - 1) / block;
  std::vector<double>& partials = block_partials(nblocks);
  pool_->for_each(0, nblocks, [&](index_t k) {
    const index_t b = k * block;
    const index_t e = std::min(n, b + block);
    partials[k] = la::simd::step_update_max(a, p.data() + b, u.data() + b,
                                             static_cast<std::size_t>(e - b));
  });
  // max over blocks == max over the range: order-insensitive.  A NaN
  // block makes the whole range NaN, as in the serial kernel.
  double mx = 0.0;
  for (index_t k = 0; k < nblocks; ++k) {
    if (std::isnan(partials[k])) return partials[k];
    mx = std::max(mx, partials[k]);
  }
  return mx;
}

const Execution& serial_execution() {
  static const Execution serial;
  return serial;
}

}  // namespace mstep::par
