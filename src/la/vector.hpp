// Dense vector kernels (BLAS-1 level).
//
// These are the exact operations Algorithm 1 of the paper is built from:
// axpy-style updates vectorize on the CYBER 203/205 and distribute on the
// Finite Element Machine; dot products are the expensive global reductions
// the m-step preconditioner is designed to amortize.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mstep {

/// Index type used across the library.  Problems in the paper's range
/// (N = 2ab up to ~13k; our benches go higher) fit comfortably in 32 bits.
using index_t = std::int32_t;

/// Dense vector of doubles.  A plain std::vector keeps the storage model
/// transparent (contiguous, like the CYBER's vector registers require).
using Vec = std::vector<double>;

namespace la {

/// Reduction block length shared by the serial kernels and the threaded
/// execution engine (par::Execution).  dot() computes each block with the
/// fixed 8-lane schedule of la/simd.hpp (bitwise identical on the scalar
/// and AVX2 paths) and combines the block partials in block order, so a
/// parallel reduction that computes the same per-block partials reproduces
/// the serial result BITWISE for any thread count.  A multiple of
/// simd::kDotLanes, so lane phase is consistent across block boundaries.
inline constexpr std::size_t kReductionBlock = 1024;

namespace detail {
/// Fixed-8-lane partial sum of x[i] * y[i] over [begin, end) — the
/// per-block kernel of the deterministic reduction (simd::dot_block).
[[nodiscard]] double dot_range(const Vec& x, const Vec& y, std::size_t begin,
                               std::size_t end);
}  // namespace detail

/// y <- a*x + y
void axpy(double a, const Vec& x, Vec& y);

/// y <- x + b*y   (the "xpay" update used for the CG direction p)
void xpay(const Vec& x, double b, Vec& y);

/// x <- a*x
void scale(double a, Vec& x);

/// Euclidean inner product (x, y) = x^T y, computed as the deterministic
/// blocked reduction described at kReductionBlock.
[[nodiscard]] double dot(const Vec& x, const Vec& y);

/// 2-norm.
[[nodiscard]] double nrm2(const Vec& x);

/// Infinity norm — the paper's Algorithm 1 stopping test uses
/// |u^{k+1} - u^k|_inf < eps.
[[nodiscard]] double norm_inf(const Vec& x);

/// Infinity norm of (x - y) without forming the difference.
[[nodiscard]] double diff_norm_inf(const Vec& x, const Vec& y);

/// x <- value everywhere.
void fill(Vec& x, double value);

/// w <- x - y
void sub(const Vec& x, const Vec& y, Vec& w);

/// Elementwise product w <- x .* y (diagonal-matrix application).
void hadamard(const Vec& x, const Vec& y, Vec& w);

}  // namespace la
}  // namespace mstep
