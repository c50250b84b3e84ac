// Explicit AVX2 implementations of the SIMD kernel layer.
//
// This is the ONLY translation unit compiled with -mavx2 (CMake sets the
// flag per-file), so AVX2 instructions can never leak into code that runs
// before the runtime dispatch check.  Every kernel mirrors its portable
// twin in la/simd.cpp operation-for-operation: the fixed-lane reduction
// schedules map lanes onto vector-register lanes, every product uses
// _mm256_mul_pd followed by _mm256_add_pd (never _mm256_fmadd_pd — the
// portable twin has no fused rounding, so neither may this path), and the
// scalar tails are the twin's tails verbatim.  The one departure is the
// run kernels' compile-time-count sums (fixed_sum), which leave out the
// lanes' +0.0 starts in a way that changes no bit.  See la/simd.hpp for
// the bitwise contract.
#include "la/simd_internal.hpp"

#if defined(MSTEP_HAS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

namespace mstep::la::simd::avx2 {

namespace {

/// Clears the sign bit — |x| for the max-reduction, matching std::abs.
inline __m256d abs_pd(__m256d v) {
  const __m256d mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  return _mm256_and_pd(v, mask);
}

/// x at four consecutive column indices, packed into one register.  Four
/// scalar loads + inserts beat the microcoded vgatherdpd on every current
/// x86 core for the short rows sparse systems have.
inline __m256d gather_pd(const double* x, const index_t* col) {
  return _mm256_set_pd(x[col[3]], x[col[2]], x[col[1]], x[col[0]]);
}

/// The fixed 8-lane schedule on 4-wide accumulators: term j goes to lane
/// j mod 8.  The lanes are named registers in an 8-way unrolled step — an
/// array indexed by j % 8 lives on the stack, one load-add-store per term.
/// `step(lane, j)` folds term j into `lane`.
struct Lanes8 {
  __m256d l0 = _mm256_setzero_pd(), l1 = _mm256_setzero_pd();
  __m256d l2 = _mm256_setzero_pd(), l3 = _mm256_setzero_pd();
  __m256d l4 = _mm256_setzero_pd(), l5 = _mm256_setzero_pd();
  __m256d l6 = _mm256_setzero_pd(), l7 = _mm256_setzero_pd();

  /// Terms j in [j0, j1); j0 must be a multiple of 8.
  template <typename Step>
  inline void run(index_t j0, index_t j1, const Step& step) {
    for (; j0 + 8 <= j1; j0 += 8) {
      step(l0, j0);
      step(l1, j0 + 1);
      step(l2, j0 + 2);
      step(l3, j0 + 3);
      step(l4, j0 + 4);
      step(l5, j0 + 5);
      step(l6, j0 + 6);
      step(l7, j0 + 7);
    }
    if (j0 >= j1) return;
    step(l0, j0);
    if (j0 + 1 >= j1) return;
    step(l1, j0 + 1);
    if (j0 + 2 >= j1) return;
    step(l2, j0 + 2);
    if (j0 + 3 >= j1) return;
    step(l3, j0 + 3);
    if (j0 + 4 >= j1) return;
    step(l4, j0 + 4);
    if (j0 + 5 >= j1) return;
    step(l5, j0 + 5);
    if (j0 + 6 >= j1) return;
    step(l6, j0 + 6);
  }

  /// l0 + l1 + ... + l7, left to right: the scalar reduce's order.
  [[nodiscard]] inline __m256d sum() const {
    __m256d s = _mm256_add_pd(l0, l1);
    s = _mm256_add_pd(s, l2);
    s = _mm256_add_pd(s, l3);
    s = _mm256_add_pd(s, l4);
    s = _mm256_add_pd(s, l5);
    s = _mm256_add_pd(s, l6);
    return _mm256_add_pd(s, l7);
  }
};

}  // namespace

double dot_block(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                             _mm256_loadu_pd(y + i + 4)));
  }
  double lane[kDotLanes];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (; i < n; ++i) lane[i % kDotLanes] += x[i] * y[i];
  double s = lane[0];
  for (std::size_t l = 1; l < kDotLanes; ++l) s += lane[l];
  return s;
}

double row_dot(const double* val, const index_t* col, const double* x,
               index_t begin, index_t end) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  index_t t = begin;
  for (; t + static_cast<index_t>(kRowLanes) <= end;
       t += static_cast<index_t>(kRowLanes)) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(val + t), gather_pd(x, col + t)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(val + t + 4),
                                             gather_pd(x, col + t + 4)));
  }
  double lane[kRowLanes];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (; t < end; ++t) {
    lane[static_cast<std::size_t>(t - begin) % kRowLanes] +=
        val[t] * x[col[t]];
  }
  double s = lane[0];
  for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l];
  return s;
}

double step_update_max(double a, const double* p, double* u, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  __m256d mv = _mm256_setzero_pd();
  __m256d nanv = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d step = _mm256_mul_pd(av, _mm256_loadu_pd(p + i));
    _mm256_storeu_pd(u + i, _mm256_add_pd(_mm256_loadu_pd(u + i), step));
    mv = _mm256_max_pd(mv, abs_pd(step));
    nanv = _mm256_or_pd(nanv, _mm256_cmp_pd(step, step, _CMP_UNORD_Q));
  }
  double lane[4];
  _mm256_storeu_pd(lane, mv);
  // max over non-negative values is order-insensitive: any order yields
  // the same value (and bit pattern) as the twin's sequential scan.
  double mx = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  bool nan = _mm256_movemask_pd(nanv) != 0;
  for (; i < n; ++i) {
    const double step = a * p[i];
    u[i] += step;
    mx = std::max(mx, std::abs(step));
    nan = nan || std::isnan(step);
  }
  return nan ? std::numeric_limits<double>::quiet_NaN() : mx;
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(y + i),
                                   _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void xpay(const double* x, double b, double* y, std::size_t n) {
  const __m256d bv = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(x + i),
                                   _mm256_mul_pd(bv, _mm256_loadu_pd(y + i))));
  }
  for (; i < n; ++i) y[i] = x[i] + b * y[i];
}

void scale_copy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] = a * x[i];
}

void hadamard(const double* x, const double* y, double* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        w + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) w[i] = x[i] * y[i];
}

namespace {

/// Two independent rows with their instruction streams interleaved: the
/// joint loop keeps eight FP add chains in flight and halves the per-row
/// branch cost.  Each row still executes row_dot's exact operation
/// sequence (joint iterations are that row's leading 8-wide iterations in
/// order; finish() completes the remainder), so the results are bitwise
/// row_dot's.
inline void row_dot_pair(const double* val, const index_t* col,
                         const double* x, index_t b0, index_t e0, index_t b1,
                         index_t e1, double* s0, double* s1) {
  __m256d a00 = _mm256_setzero_pd();
  __m256d a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd();
  __m256d a11 = _mm256_setzero_pd();
  index_t t0 = b0;
  index_t t1 = b1;
  constexpr auto kL = static_cast<index_t>(kRowLanes);
  while (t0 + kL <= e0 && t1 + kL <= e1) {
    a00 = _mm256_add_pd(
        a00, _mm256_mul_pd(_mm256_loadu_pd(val + t0), gather_pd(x, col + t0)));
    a10 = _mm256_add_pd(
        a10, _mm256_mul_pd(_mm256_loadu_pd(val + t1), gather_pd(x, col + t1)));
    a01 = _mm256_add_pd(a01, _mm256_mul_pd(_mm256_loadu_pd(val + t0 + 4),
                                           gather_pd(x, col + t0 + 4)));
    a11 = _mm256_add_pd(a11, _mm256_mul_pd(_mm256_loadu_pd(val + t1 + 4),
                                           gather_pd(x, col + t1 + 4)));
    t0 += kL;
    t1 += kL;
  }
  auto finish = [&](__m256d lo, __m256d hi, index_t t, index_t begin,
                    index_t end) {
    for (; t + kL <= end; t += kL) {
      lo = _mm256_add_pd(
          lo, _mm256_mul_pd(_mm256_loadu_pd(val + t), gather_pd(x, col + t)));
      hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(val + t + 4),
                                           gather_pd(x, col + t + 4)));
    }
    double lane[kRowLanes];
    _mm256_storeu_pd(lane, lo);
    _mm256_storeu_pd(lane + 4, hi);
    for (; t < end; ++t) {
      lane[static_cast<std::size_t>(t - begin) % kRowLanes] +=
          val[t] * x[col[t]];
    }
    double s = lane[0];
    for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l];
    return s;
  };
  *s0 = finish(a00, a01, t0, b0, e0);
  *s1 = finish(a10, a11, t1, b1, e1);
}

}  // namespace

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract) {
  index_t i = row_begin;
  for (; i + 2 <= row_end; i += 2) {
    double s0;
    double s1;
    row_dot_pair(val, col, x, rp[i], rp[i + 1], rp[i + 1], rp[i + 2], &s0,
                 &s1);
    if (subtract) {
      y[i] -= s0;
      y[i + 1] -= s1;
    } else {
      y[i] = s0;
      y[i + 1] = s1;
    }
  }
  for (; i < row_end; ++i) {
    if (subtract) {
      y[i] -= row_dot(val, col, x, rp[i], rp[i + 1]);
    } else {
      y[i] = row_dot(val, col, x, rp[i], rp[i + 1]);
    }
  }
}

namespace {

/// Per-row 8-lane sums of one SELL slice: entry j of every lane-row goes
/// to lane j mod 8, which replays row_dot's intra-row schedule in all four
/// slice rows at once.
inline __m256d slice_sums(const SellView& s, index_t sl, const double* x) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const std::size_t base = s.slice_ptr[sl];
  const auto width =
      static_cast<index_t>((s.slice_ptr[sl + 1] - base) / kSellSlice);
  // Row lengths of this slice's 4 lanes, widened for the j < len mask.
  const __m256i len64 = _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.len + sl * kC)));
  const auto product = [&](index_t j) {
    const std::size_t at = base + static_cast<std::size_t>(j) * kSellSlice;
    return _mm256_mul_pd(_mm256_loadu_pd(s.val + at),
                         gather_pd(x, s.col + at));
  };
  // Up to the shortest row of the slice every lane is live: no mask
  // needed, and the sigma sort makes this the bulk of the work.
  index_t shortest = s.len[sl * kC];
  for (index_t r = 1; r < kC; ++r) {
    shortest = std::min(shortest, s.len[sl * kC + r]);
  }
  const index_t unmasked = shortest / 8 * 8;
  Lanes8 lanes;
  lanes.run(0, unmasked, [&](__m256d& lane, index_t j) {
    lane = _mm256_add_pd(lane, product(j));
  });
  lanes.run(unmasked, width, [&](__m256d& lane, index_t j) {
    const __m256d live = _mm256_castsi256_pd(
        _mm256_cmpgt_epi64(len64, _mm256_set1_epi64x(j)));
    // Blend keeps the old accumulator in padded lanes — adding the pad's
    // 0.0 product would turn a -0.0 partial into +0.0 and break the
    // bitwise contract.
    lane = _mm256_blendv_pd(lane, _mm256_add_pd(lane, product(j)), live);
  });
  return lanes.sum();
}

}  // namespace

void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  for (index_t sl = slice_begin; sl < slice_end; ++sl) {
    double sum[kSellSlice];
    _mm256_storeu_pd(sum, slice_sums(s, sl, x));
    for (index_t r = 0; r < kC; ++r) {
      const index_t g = s.perm[sl * kC + r];
      if (g < 0) continue;
      if (subtract) {
        y[g] -= sum[r];
      } else {
        y[g] = sum[r];
      }
    }
  }
}

namespace {

// The fixed-count kernels below are one straight line of loads, multiplies
// and adds per row only when every helper and lambda in them is inlined;
// left to itself the compiler calls some of them out of line.
#define MSTEP_INLINE inline __attribute__((always_inline))

/// f(std::integral_constant<int, K>{}) for K = B, B + 1, ..., E - 1.
template <int B, int E, typename F>
MSTEP_INLINE void unroll(const F& f) {
  if constexpr (B < E) {
    f(std::integral_constant<int, B>{});
    unroll<B + 1, E>(f);
  }
}

/// The longest run, in terms, with a kernel of its own; longer runs loop.
constexpr int kMaxFixedTerms = 16;

/// body(std::integral_constant<int, count>{}) for a count in [0,
/// kMaxFixedTerms], body(std::integral_constant<int, -1>{}) for a longer
/// one: a run's term count is fixed, so each run takes this branch once.
template <int N = 0, typename Body>
inline void with_terms(index_t count, const Body& body) {
  if constexpr (N > kMaxFixedTerms) {
    body(std::integral_constant<int, -1>{});
  } else if (count == N) {
    body(std::integral_constant<int, N>{});
  } else {
    with_terms<N + 1>(count, body);
  }
}

/// row_dot's schedule over `count` terms, term(k) being one register of
/// term-k products (four rows', or four columns' of one row), with the
/// count N known at compile time (N < 0: only at run time, in `count`).
/// row_dot starts each lane at +0.0.  Leaving that start out changes only
/// the sign of a zero, in every lane and in every partial sum, and a
/// zero-started lane is never -0.0 (+0 + -0 is +0), so row_dot's sum is
/// the sum without the start plus one + 0.0 (a lone NaN passes through
/// it): count adds, not count + 8, and no other bits.  With at most eight
/// terms each lane holds one, and the sum is the left-to-right one.
template <int N, typename Term>
MSTEP_INLINE __m256d fixed_sum(index_t count, const Term& term) {
  if constexpr (N < 0) {
    Lanes8 lanes;
    lanes.run(0, count, [&](__m256d& lane, index_t k) {
      lane = _mm256_add_pd(lane, term(k));
    });
    return lanes.sum();
  } else if constexpr (N == 0) {
    return _mm256_setzero_pd();
  } else {
    constexpr int kLanes = N < 8 ? N : 8;
    __m256d lane[kLanes];
    unroll<0, kLanes>(
        [&](auto k) __attribute__((always_inline)) { lane[k] = term(k); });
    unroll<8, N>([&](auto k) __attribute__((always_inline)) {
      lane[k - 8] = _mm256_add_pd(lane[k - 8], term(k));
    });
    __m256d sum = lane[0];
    unroll<1, kLanes>([&](auto k) __attribute__((always_inline)) {
      sum = _mm256_add_pd(sum, lane[k]);
    });
    return _mm256_add_pd(sum, _mm256_setzero_pd());
  }
}

/// The summed terms of run q over x, resolved once per run: term k of row
/// row[q] + t is value column col[k] at t times x at row[q] + t + off[k], x
/// holding W doubles per row (1: a vector, kSellSlice: a block).  With N
/// terms known at compile time each term's value column and x position is
/// one pointer; a longer run (N < 0) finds them per term.  Every operand
/// a kernel loop reads is copied into this object or a local: the vector
/// stores may alias any memory, so whatever the loop reads through a
/// reference would be reloaded after each of them.
template <int N, std::size_t W>
struct RunTerms {
  RunTerms(const RunView& runs, index_t q, const double* x)
      : val(runs.val), off(runs.off + runs.off_at[q]),
        start(runs.col + runs.off_at[q]),
        x(x + static_cast<std::size_t>(runs.row[q]) * W),
        count(runs.count[q]) {
    for (int k = 0; k < N; ++k) {
      col[k] = column(k);
      at[k] = position(k);
    }
  }

  /// Term k's value column, and x at row[q] + off[k].
  [[nodiscard]] MSTEP_INLINE const double* column(index_t k) const {
    return val + start[k];
  }
  [[nodiscard]] MSTEP_INLINE const double* position(index_t k) const {
    return x + static_cast<std::ptrdiff_t>(off[k]) *
                   static_cast<std::ptrdiff_t>(W);
  }

  /// Term k of rows [t, t + 4) (W = 1: one contiguous load of value column
  /// k and one of x, no gather), or of block row t (W = kSellSlice: a
  /// broadcast of the value times the block row of x).
  [[nodiscard]] MSTEP_INLINE __m256d term(index_t k, std::size_t t) const {
    const double* v = nullptr;
    const double* xi = nullptr;
    if constexpr (N < 0) {
      v = column(k) + t;
      xi = position(k) + t * W;
    } else {
      v = col[k] + t;
      xi = at[k] + t * W;
    }
    if constexpr (W == 1) {
      return _mm256_mul_pd(_mm256_loadu_pd(v), _mm256_loadu_pd(xi));
    } else {
      return _mm256_mul_pd(_mm256_broadcast_sd(v), _mm256_loadu_pd(xi));
    }
  }

  [[nodiscard]] MSTEP_INLINE __m256d sum(std::size_t t) const {
    return fixed_sum<N>(count, [&](index_t k) __attribute__((always_inline)) {
      return term(k, t);
    });
  }

  const double* val;
  const index_t* off;
  const index_t* start;  // per term: its value column in val
  const double* x;       // at the run's first row
  index_t count;
  const double* col[N > 0 ? N : 1];
  const double* at[N > 0 ? N : 1];
};

/// One row of run q: the portable twin's run_row_sum verbatim.
inline double run_row_sum(const RunView& runs, index_t q, index_t t,
                          const double* xi) {
  const index_t* off = runs.off + runs.off_at[q];
  const index_t* col = runs.col + runs.off_at[q];
  const double* val = runs.val + t;
  double lane[kRowLanes] = {};
  for (index_t k = 0; k < runs.count[q]; ++k) {
    lane[static_cast<std::size_t>(k) % kRowLanes] += val[col[k]] * xi[off[k]];
  }
  double sum = lane[0];
  for (std::size_t l = 1; l < kRowLanes; ++l) sum += lane[l];
  return sum;
}

/// The lanes of rows [w, w + 4) that lie in [t, t_end).
inline __m256i live_lanes(index_t w, index_t t, index_t t_end) {
  const __m256i row =
      _mm256_add_epi64(_mm256_set1_epi64x(w), _mm256_set_epi64x(3, 2, 1, 0));
  return _mm256_andnot_si256(
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(t), row),
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(t_end), row));
}

/// run_spmv_rows over rows [t_begin, t_end) of run q, N terms, at least
/// four rows long.
template <int N>
void run_rows4(const RunView& runs, index_t q, const double* x, double* y,
               index_t t_begin, index_t t_end, bool subtract) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const RunTerms<N, 1> terms(runs, q, x);
  double* yr = y + runs.row[q];
  index_t t = t_begin;
  for (; t + kC <= t_end; t += kC) {
    const __m256d sum = terms.sum(static_cast<std::size_t>(t));
    _mm256_storeu_pd(
        yr + t, subtract ? _mm256_sub_pd(_mm256_loadu_pd(yr + t), sum) : sum);
  }
  if (t >= t_end) return;
  // Fewer than four rows left: sum the run's four rows at w, which hold
  // them, and load and store only the live lanes, so no row outside [t,
  // t_end) is read or written — the row next door may be another strip's.
  // Each lane is its own row's sum, so the bits are the scalar rows'.
  const index_t w = std::min(t, runs.len[q] - kC);
  const __m256i live = live_lanes(w, t, t_end);
  const __m256d sum = terms.sum(static_cast<std::size_t>(w));
  _mm256_maskstore_pd(
      yr + w, live,
      subtract ? _mm256_sub_pd(_mm256_maskload_pd(yr + w, live), sum) : sum);
}

}  // namespace

void run_spmv_rows(const RunView& runs, const double* x, double* y,
                   index_t begin, index_t end, bool subtract) {
  for (index_t q = 0; q < runs.num_runs; ++q) {
    const index_t i0 = runs.row[q];
    const index_t t_end = std::min(runs.len[q], end - i0);
    const index_t t_begin = std::max<index_t>(0, begin - i0);
    if (t_begin >= t_end) continue;
    if (runs.len[q] < static_cast<index_t>(kSellSlice)) {
      // A hand-built short run: row by row.
      for (index_t t = t_begin; t < t_end; ++t) {
        const double sum = run_row_sum(runs, q, t, x + i0 + t);
        y[i0 + t] = subtract ? y[i0 + t] - sum : sum;
      }
      continue;
    }
    with_terms(runs.count[q], [&](auto terms) {
      run_rows4<decltype(terms)::value>(runs, q, x, y, t_begin, t_end,
                                        subtract);
    });
  }
}

namespace {

/// sweep_segments' class update of one row from its segment sum: the
/// portable twin's verbatim.
inline void sweep_update(double sum, index_t i, const double* diag, double a,
                         const double* r, double* z, double* y, bool last) {
  if (r == nullptr) {
    y[i] = -sum;
    return;
  }
  z[i] = (y[i] - sum + a * r[i]) / diag[i];
  y[i] = last ? 0.0 : -sum;
}

/// Stores v at p, or only its `live` lanes when given.
inline void store4(double* p, __m256d v, const __m256i* live) {
  if (live == nullptr) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, *live, v);
  }
}

/// The same update of rows [i, i + 4), one register per operand; with
/// `live`, z and y are written in the live lanes only.
inline void sweep_update4(__m256d sum, index_t i, const double* diag,
                          __m256d av, const double* r, double* z, double* y,
                          bool last, const __m256i* live = nullptr) {
  // -sum: a sign flip, exactly the scalar negation.
  const __m256d x = _mm256_xor_pd(sum, _mm256_set1_pd(-0.0));
  if (r == nullptr) {
    store4(y + i, x, live);
    return;
  }
  const __m256d t =
      _mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(y + i), sum),
                    _mm256_mul_pd(av, _mm256_loadu_pd(r + i)));
  store4(z + i, _mm256_div_pd(t, _mm256_loadu_pd(diag + i)), live);
  store4(y + i, last ? _mm256_setzero_pd() : x, live);
}

/// sweep_segments over run q, N terms, at least four rows long: four rows
/// at a time, then the last rows masked as in run_rows4.  That update
/// reads y, r and diag in all four lanes, rows of the same run.
template <int N>
void sweep_run4(const RunView& runs, index_t q, const double* diag,
                __m256d av, const double* r, double* z, double* y,
                bool last) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const RunTerms<N, 1> terms(runs, q, z);
  const index_t row = runs.row[q];
  const index_t len = runs.len[q];
  index_t t = 0;
  for (; t + kC <= len; t += kC) {
    sweep_update4(terms.sum(static_cast<std::size_t>(t)), row + t, diag, av,
                  r, z, y, last);
  }
  if (t == len) return;
  const index_t w = len - kC;
  const __m256i live = live_lanes(w, t, len);
  sweep_update4(terms.sum(static_cast<std::size_t>(w)), row + w, diag, av, r,
                z, y, last, &live);
}

}  // namespace

void sweep_segments(const RunView& runs, const SellView& rest,
                    const double* diag, double a, const double* r, double* z,
                    double* y, bool last) {
  const __m256d av = _mm256_set1_pd(a);
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  for (index_t q = 0; q < runs.num_runs; ++q) {
    if (runs.len[q] >= kC) {
      with_terms(runs.count[q], [&](auto terms) {
        sweep_run4<decltype(terms)::value>(runs, q, diag, av, r, z, y, last);
      });
      continue;
    }
    // A hand-built short run: row by row.
    const index_t i0 = runs.row[q];
    for (index_t t = 0; t < runs.len[q]; ++t) {
      sweep_update(run_row_sum(runs, q, t, z + i0 + t), i0 + t, diag, a, r, z,
                   y, last);
    }
  }
  // The leftover rows' slice sums are complete before any of the slice's
  // rows is updated; a padded lane's gather is blended away.
  for (index_t sl = 0; sl < rest.num_slices; ++sl) {
    double sum[kSellSlice];
    _mm256_storeu_pd(sum, slice_sums(rest, sl, z));
    for (index_t lane = 0; lane < kC; ++lane) {
      const index_t g = rest.perm[sl * kC + lane];
      if (g < 0) continue;
      sweep_update(sum[lane], g, diag, a, r, z, y, last);
    }
  }
}

// ---- block kernels ----------------------------------------------------------

namespace {

constexpr std::size_t kW = kSellSlice;

inline __m256d load_row(const double* x, index_t i) {
  return _mm256_loadu_pd(x + static_cast<std::size_t>(i) * kW);
}

/// row_dot's schedule for every column of the block x at once: term j,
/// val[j * stride] * x(col[j * stride]), is one broadcast times one block
/// row.
inline __m256d block_row_sum(const double* val, const index_t* col,
                             index_t len, std::size_t stride,
                             const double* x) {
  Lanes8 lanes;
  lanes.run(0, len, [&](__m256d& lane, index_t j) {
    const std::size_t at = static_cast<std::size_t>(j) * stride;
    lane = _mm256_add_pd(lane, _mm256_mul_pd(_mm256_broadcast_sd(val + at),
                                             load_row(x, col[at])));
  });
  return lanes.sum();
}

inline void store_row(__m256d sum, double* y, index_t i, bool subtract) {
  double* yr = y + static_cast<std::size_t>(i) * kW;
  _mm256_storeu_pd(yr, subtract ? _mm256_sub_pd(_mm256_loadu_pd(yr), sum)
                                : sum);
}

}  // namespace

void block_dot(const double* x, const double* y, std::size_t rows,
               double* out) {
  Lanes8 lanes;
  lanes.run(0, static_cast<index_t>(rows), [&](__m256d& lane, index_t i) {
    lane = _mm256_add_pd(lane, _mm256_mul_pd(load_row(x, i), load_row(y, i)));
  });
  _mm256_storeu_pd(out, lanes.sum());
}

void block_step_update_max(const double* a, const double* p,
                           double* const* u, std::size_t rows, double* out) {
  const __m256d av = _mm256_loadu_pd(a);
  __m256d mv = _mm256_setzero_pd();
  __m256d nanv = _mm256_setzero_pd();
  for (std::size_t i = 0; i < rows; ++i) {
    const __m256d step = _mm256_mul_pd(av, load_row(p, i));
    double s[kW];
    _mm256_storeu_pd(s, step);
    for (std::size_t c = 0; c < kW; ++c) {
      if (u[c] != nullptr) u[c][i] += s[c];
    }
    mv = _mm256_max_pd(mv, abs_pd(step));
    nanv = _mm256_or_pd(nanv, _mm256_cmp_pd(step, step, _CMP_UNORD_Q));
  }
  // Per column, max over non-negative values is order-insensitive.
  _mm256_storeu_pd(
      out, _mm256_blendv_pd(
               mv, _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN()),
               nanv));
}

void block_axpy(const double* a, const double* x, double* y,
                std::size_t rows) {
  const __m256d av = _mm256_loadu_pd(a);
  for (std::size_t i = 0; i < rows * kW; i += kW) {
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(y + i),
                                   _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  }
}

void block_xpay(const double* x, const double* b, double* y,
                std::size_t rows) {
  const __m256d bv = _mm256_loadu_pd(b);
  for (std::size_t i = 0; i < rows * kW; i += kW) {
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(x + i),
                                   _mm256_mul_pd(bv, _mm256_loadu_pd(y + i))));
  }
}

void block_csr_rows(const index_t* rp, const index_t* col, const double* val,
                    const double* x, double* y, index_t row_begin,
                    index_t row_end, bool subtract) {
  for (index_t i = row_begin; i < row_end; ++i) {
    store_row(block_row_sum(val + rp[i], col + rp[i], rp[i + 1] - rp[i], 1, x),
              y, i, subtract);
  }
}

namespace {

/// block_run_rows over run q, N terms.
template <int N>
void block_run(const RunView& runs, index_t q, const double* x, double* y,
               bool subtract) {
  const RunTerms<N, kW> terms(runs, q, x);
  const index_t row = runs.row[q];
  const auto len = static_cast<std::size_t>(runs.len[q]);
  for (std::size_t t = 0; t < len; ++t) {
    store_row(terms.sum(t), y, row + static_cast<index_t>(t), subtract);
  }
}

}  // namespace

void block_run_rows(const RunView& runs, const double* x, double* y,
                    bool subtract) {
  for (index_t q = 0; q < runs.num_runs; ++q) {
    with_terms(runs.count[q], [&](auto terms) {
      block_run<decltype(terms)::value>(runs, q, x, y, subtract);
    });
  }
}

namespace {

/// block_sweep_segments' class update of block row i from its sum:
/// sweep_update4's operation order in every column.
inline void block_sweep_update(__m256d sum, index_t i, const double* diag,
                               __m256d av, const double* r, double* z,
                               double* y, bool last) {
  // -sum: a sign flip, exactly the scalar negation.
  const __m256d x = _mm256_xor_pd(sum, _mm256_set1_pd(-0.0));
  double* yr = y + static_cast<std::size_t>(i) * kW;
  if (r == nullptr) {
    _mm256_storeu_pd(yr, x);
    return;
  }
  const __m256d t = _mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(yr), sum),
                                  _mm256_mul_pd(av, load_row(r, i)));
  _mm256_storeu_pd(z + static_cast<std::size_t>(i) * kW,
                   _mm256_div_pd(t, _mm256_broadcast_sd(diag + i)));
  _mm256_storeu_pd(yr, last ? _mm256_setzero_pd() : x);
}

/// block_sweep_segments over run q, N terms.
template <int N>
void block_sweep_run(const RunView& runs, index_t q, const double* diag,
                     __m256d av, const double* r, double* z, double* y,
                     bool last) {
  const RunTerms<N, kW> terms(runs, q, z);
  const index_t row = runs.row[q];
  const auto len = static_cast<std::size_t>(runs.len[q]);
  for (std::size_t t = 0; t < len; ++t) {
    block_sweep_update(terms.sum(t), row + static_cast<index_t>(t), diag, av,
                       r, z, y, last);
  }
}

}  // namespace

void block_sweep_segments(const RunView& runs, const SellView& rest,
                          const double* diag, double a, const double* r,
                          double* z, double* y, bool last) {
  const __m256d av = _mm256_set1_pd(a);
  for (index_t q = 0; q < runs.num_runs; ++q) {
    with_terms(runs.count[q], [&](auto terms) {
      block_sweep_run<decltype(terms)::value>(runs, q, diag, av, r, z, y,
                                              last);
    });
  }
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  for (index_t sl = 0; sl < rest.num_slices; ++sl) {
    const std::size_t base = rest.slice_ptr[sl];
    for (index_t lane = 0; lane < kC; ++lane) {
      const index_t slot = sl * kC + lane;
      const index_t g = rest.perm[slot];
      if (g < 0) continue;
      block_sweep_update(block_row_sum(rest.val + base + lane,
                                       rest.col + base + lane,
                                       rest.len[slot], kSellSlice, z),
                         g, diag, av, r, z, y, last);
    }
  }
}

#undef MSTEP_INLINE

}  // namespace mstep::la::simd::avx2

#endif  // MSTEP_HAS_AVX2
