#include "la/vector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "la/simd.hpp"

// Every BLAS-1 kernel delegates to the SIMD layer (la/simd.hpp): one
// runtime-dispatched implementation — portable twin or AVX2, bitwise
// identical — serves the serial path here and the threaded chunks in
// par::Execution alike.

namespace mstep::la {

void axpy(double a, const Vec& x, Vec& y) {
  assert(x.size() == y.size());
  simd::axpy(a, x.data(), y.data(), x.size());
}

void xpay(const Vec& x, double b, Vec& y) {
  assert(x.size() == y.size());
  simd::xpay(x.data(), b, y.data(), x.size());
}

void scale(double a, Vec& x) { simd::scale_copy(a, x.data(), x.data(), x.size()); }

namespace detail {

double dot_range(const Vec& x, const Vec& y, std::size_t begin,
                 std::size_t end) {
  return simd::dot_block(x.data() + begin, y.data() + begin, end - begin);
}

}  // namespace detail

double dot(const Vec& x, const Vec& y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  double s = 0.0;
  for (std::size_t b = 0; b < n; b += kReductionBlock) {
    s += detail::dot_range(x, y, b, std::min(n, b + kReductionBlock));
  }
  return s;
}

double nrm2(const Vec& x) { return std::sqrt(dot(x, x)); }

double norm_inf(const Vec& x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

double diff_norm_inf(const Vec& x, const Vec& y) {
  assert(x.size() == y.size());
  double m = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i] - y[i]));
  return m;
}

void fill(Vec& x, double value) {
  for (auto& v : x) v = value;
}

void sub(const Vec& x, const Vec& y, Vec& w) {
  assert(x.size() == y.size());
  w.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) w[i] = x[i] - y[i];
}

void hadamard(const Vec& x, const Vec& y, Vec& w) {
  assert(x.size() == y.size());
  w.resize(x.size());
  simd::hadamard(x.data(), y.data(), w.data(), x.size());
}

}  // namespace mstep::la
