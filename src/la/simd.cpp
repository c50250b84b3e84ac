// Portable twins + runtime dispatch for the SIMD kernel layer.
//
// The scalar implementations here are NOT naive loops: reductions follow
// the same fixed-lane schedule as the AVX2 path (see la/simd.hpp), so both
// paths perform the identical sequence of IEEE-754 mul/add operations and
// produce bitwise-identical results.  Dispatch is a relaxed atomic load
// plus a branch per kernel call; the decision may therefore change at any
// time (tests flip it per-case) without affecting any result.
#include "la/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "la/simd_internal.hpp"

namespace mstep::la::simd {

namespace {

SimdMode mode_from_env() {
  const char* e = std::getenv("MSTEP_SIMD");
  if (e == nullptr) return SimdMode::kAuto;
  if (std::strcmp(e, "off") == 0 || std::strcmp(e, "0") == 0 ||
      std::strcmp(e, "scalar") == 0) {
    return SimdMode::kForceScalar;
  }
  if (std::strcmp(e, "on") == 0 || std::strcmp(e, "1") == 0 ||
      std::strcmp(e, "avx2") == 0) {
    return SimdMode::kForceVector;
  }
  return SimdMode::kAuto;
}

std::atomic<SimdMode>& mode_cell() {
  static std::atomic<SimdMode> cell{mode_from_env()};
  return cell;
}

}  // namespace

void set_simd_mode(SimdMode mode) {
  mode_cell().store(mode, std::memory_order_relaxed);
}

SimdMode simd_mode() { return mode_cell().load(std::memory_order_relaxed); }

bool simd_compiled() {
#if defined(MSTEP_HAS_AVX2)
  return true;
#else
  return false;
#endif
}

bool simd_available() {
#if defined(MSTEP_HAS_AVX2)
  static const bool cpu_ok = __builtin_cpu_supports("avx2") != 0;
  return cpu_ok;
#else
  return false;
#endif
}

bool simd_active() {
  const SimdMode m = simd_mode();
  if (m == SimdMode::kForceScalar) return false;
  // kForceVector still requires the path to exist: with no AVX2 the
  // portable twin runs — same bits, so forcing is safe everywhere.
  return simd_available();
}

const char* simd_isa() { return simd_active() ? "avx2" : "scalar"; }

// ---- portable twins ---------------------------------------------------------

namespace portable {

double dot_block(const double* x, const double* y, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    l0 += x[i] * y[i];
    l1 += x[i + 1] * y[i + 1];
    l2 += x[i + 2] * y[i + 2];
    l3 += x[i + 3] * y[i + 3];
    l4 += x[i + 4] * y[i + 4];
    l5 += x[i + 5] * y[i + 5];
    l6 += x[i + 6] * y[i + 6];
    l7 += x[i + 7] * y[i + 7];
  }
  double lane[kDotLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) lane[i % kDotLanes] += x[i] * y[i];
  double s = lane[0];
  for (std::size_t l = 1; l < kDotLanes; ++l) s += lane[l];
  return s;
}

double row_dot(const double* val, const index_t* col, const double* x,
               index_t begin, index_t end) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
  index_t t = begin;
  for (; t + static_cast<index_t>(kRowLanes) <= end;
       t += static_cast<index_t>(kRowLanes)) {
    l0 += val[t] * x[col[t]];
    l1 += val[t + 1] * x[col[t + 1]];
    l2 += val[t + 2] * x[col[t + 2]];
    l3 += val[t + 3] * x[col[t + 3]];
    l4 += val[t + 4] * x[col[t + 4]];
    l5 += val[t + 5] * x[col[t + 5]];
    l6 += val[t + 6] * x[col[t + 6]];
    l7 += val[t + 7] * x[col[t + 7]];
  }
  double lane[kRowLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; t < end; ++t) {
    lane[static_cast<std::size_t>(t - begin) % kRowLanes] +=
        val[t] * x[col[t]];
  }
  double s = lane[0];
  for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l];
  return s;
}

double step_update_max(double a, const double* p, double* u, std::size_t n) {
  double mx = 0.0;
  bool nan = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double step = a * p[i];
    u[i] += step;
    mx = std::max(mx, std::abs(step));
    nan = nan || std::isnan(step);
  }
  return nan ? std::numeric_limits<double>::quiet_NaN() : mx;
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void xpay(const double* x, double b, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + b * y[i];
}

void scale_copy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i];
}

void hadamard(const double* x, const double* y, double* w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) w[i] = x[i] * y[i];
}

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract) {
  if (subtract) {
    for (index_t i = row_begin; i < row_end; ++i) {
      y[i] -= row_dot(val, col, x, rp[i], rp[i + 1]);
    }
  } else {
    for (index_t i = row_begin; i < row_end; ++i) {
      y[i] = row_dot(val, col, x, rp[i], rp[i + 1]);
    }
  }
}

/// row_dot's schedule over the row in SELL slot (slice sl, lane r).
double slot_sum(const SellView& s, index_t sl, index_t r, const double* x) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const std::size_t base = s.slice_ptr[sl];
  const index_t length = s.len[sl * kC + r];
  double lane[kRowLanes] = {};
  for (index_t j = 0; j < length; ++j) {
    const std::size_t at = base + static_cast<std::size_t>(j) * kC + r;
    lane[static_cast<std::size_t>(j) % kRowLanes] += s.val[at] * x[s.col[at]];
  }
  double sum = lane[0];
  for (std::size_t l = 1; l < kRowLanes; ++l) sum += lane[l];
  return sum;
}

void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  for (index_t sl = slice_begin; sl < slice_end; ++sl) {
    for (index_t r = 0; r < kC; ++r) {
      const index_t g = s.perm[sl * kC + r];
      if (g < 0) continue;  // slot holds no row
      const double sum = slot_sum(s, sl, r, x);
      if (subtract) {
        y[g] -= sum;
      } else {
        y[g] = sum;
      }
    }
  }
}

/// row_dot's schedule over row row[q] + t of run q; xi points at x at
/// that row, so term k reads xi[off[k]].
double run_row_sum(const RunView& runs, index_t q, index_t t,
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

void run_spmv_rows(const RunView& runs, const double* x, double* y,
                   index_t begin, index_t end, bool subtract) {
  for (index_t q = 0; q < runs.num_runs; ++q) {
    const index_t i0 = runs.row[q];
    const index_t t_end = std::min(runs.len[q], end - i0);
    for (index_t t = std::max<index_t>(0, begin - i0); t < t_end; ++t) {
      const double sum = run_row_sum(runs, q, t, x + i0 + t);
      if (subtract) {
        y[i0 + t] -= sum;
      } else {
        y[i0 + t] = sum;
      }
    }
  }
}

/// sweep_segments' class update of row i from its segment sum.
inline void sweep_update(double sum, index_t i, const double* diag, double a,
                         const double* r, double* z, double* y, bool last) {
  if (r == nullptr) {
    y[i] = -sum;
    return;
  }
  z[i] = (y[i] - sum + a * r[i]) / diag[i];
  y[i] = last ? 0.0 : -sum;
}

void sweep_segments(const RunView& runs, const SellView& rest,
                    const double* diag, double a, const double* r, double* z,
                    double* y, bool last) {
  for (index_t q = 0; q < runs.num_runs; ++q) {
    const index_t i0 = runs.row[q];
    for (index_t t = 0; t < runs.len[q]; ++t) {
      sweep_update(run_row_sum(runs, q, t, z + i0 + t), i0 + t, diag, a, r, z,
                   y, last);
    }
  }
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  for (index_t sl = 0; sl < rest.num_slices; ++sl) {
    for (index_t lane = 0; lane < kC; ++lane) {
      const index_t g = rest.perm[sl * kC + lane];
      if (g < 0) continue;
      sweep_update(slot_sum(rest, sl, lane, z), g, diag, a, r, z, y, last);
    }
  }
}

// ---- block twins ----

constexpr std::size_t kW = kSellSlice;

/// row_dot's schedule for every column of the block x: term j, val[j *
/// stride] * x(col[j * stride]), goes to lane j mod 8; sum[c] = lane 0 +
/// ... + lane 7 of column c.
void block_row_sum(const double* val, const index_t* col, index_t len,
                   std::size_t stride, const double* x, double* sum) {
  double lane[kRowLanes][kW] = {};
  for (index_t j = 0; j < len; ++j) {
    const std::size_t at = static_cast<std::size_t>(j) * stride;
    const double v = val[at];
    const double* xr = x + static_cast<std::size_t>(col[at]) * kW;
    double* l = lane[static_cast<std::size_t>(j) % kRowLanes];
    for (std::size_t c = 0; c < kW; ++c) l[c] += v * xr[c];
  }
  for (std::size_t c = 0; c < kW; ++c) {
    double s = lane[0][c];
    for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l][c];
    sum[c] = s;
  }
}

void store_row(const double* sum, double* y, bool subtract) {
  for (std::size_t c = 0; c < kW; ++c) {
    if (subtract) {
      y[c] -= sum[c];
    } else {
      y[c] = sum[c];
    }
  }
}

void block_dot(const double* x, const double* y, std::size_t rows,
               double* out) {
  double lane[kDotLanes][kW] = {};
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < kW; ++c) {
      lane[i % kDotLanes][c] += x[i * kW + c] * y[i * kW + c];
    }
  }
  for (std::size_t c = 0; c < kW; ++c) {
    double s = lane[0][c];
    for (std::size_t l = 1; l < kDotLanes; ++l) s += lane[l][c];
    out[c] = s;
  }
}

void block_step_update_max(const double* a, const double* p,
                           double* const* u, std::size_t rows, double* out) {
  double mx[kW] = {};
  bool nan[kW] = {};
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < kW; ++c) {
      const double step = a[c] * p[i * kW + c];
      if (u[c] != nullptr) u[c][i] += step;
      mx[c] = std::max(mx[c], std::abs(step));
      nan[c] = nan[c] || std::isnan(step);
    }
  }
  for (std::size_t c = 0; c < kW; ++c) {
    out[c] = nan[c] ? std::numeric_limits<double>::quiet_NaN() : mx[c];
  }
}

void block_axpy(const double* a, const double* x, double* y,
                std::size_t rows) {
  for (std::size_t i = 0; i < rows * kW; ++i) y[i] += a[i % kW] * x[i];
}

void block_xpay(const double* x, const double* b, double* y,
                std::size_t rows) {
  for (std::size_t i = 0; i < rows * kW; ++i) y[i] = x[i] + b[i % kW] * y[i];
}

void block_csr_rows(const index_t* rp, const index_t* col, const double* val,
                    const double* x, double* y, index_t row_begin,
                    index_t row_end, bool subtract) {
  for (index_t i = row_begin; i < row_end; ++i) {
    double sum[kW];
    block_row_sum(val + rp[i], col + rp[i], rp[i + 1] - rp[i], 1, x, sum);
    store_row(sum, y + static_cast<std::size_t>(i) * kW, subtract);
  }
}

/// block_row_sum's schedule over block row row[q] + t of run q: term k is
/// value column k at t times x's block row at row[q] + t + off[k].
void block_run_row_sum(const RunView& runs, index_t q, index_t t,
                       const double* x, double* sum) {
  const index_t* off = runs.off + runs.off_at[q];
  const index_t* col = runs.col + runs.off_at[q];
  const double* val = runs.val + t;
  const index_t i = runs.row[q] + t;
  double lane[kRowLanes][kW] = {};
  for (index_t k = 0; k < runs.count[q]; ++k) {
    const double v = val[col[k]];
    const double* xr = x + static_cast<std::size_t>(i + off[k]) * kW;
    double* l = lane[static_cast<std::size_t>(k) % kRowLanes];
    for (std::size_t c = 0; c < kW; ++c) l[c] += v * xr[c];
  }
  for (std::size_t c = 0; c < kW; ++c) {
    double s = lane[0][c];
    for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l][c];
    sum[c] = s;
  }
}

void block_run_rows(const RunView& runs, const double* x, double* y,
                    bool subtract) {
  for (index_t q = 0; q < runs.num_runs; ++q) {
    for (index_t t = 0; t < runs.len[q]; ++t) {
      double sum[kW];
      block_run_row_sum(runs, q, t, x, sum);
      store_row(sum, y + static_cast<std::size_t>(runs.row[q] + t) * kW,
                subtract);
    }
  }
}

/// block_sweep_segments' class update of block row i from its sum:
/// sweep_update's in every column.
void block_sweep_update(const double* sum, index_t i, const double* diag,
                        double a, const double* r, double* z, double* y,
                        bool last) {
  const std::size_t at = static_cast<std::size_t>(i) * kW;
  for (std::size_t c = 0; c < kW; ++c) {
    if (r == nullptr) {
      y[at + c] = -sum[c];
      continue;
    }
    z[at + c] = (y[at + c] - sum[c] + a * r[at + c]) / diag[i];
    y[at + c] = last ? 0.0 : -sum[c];
  }
}

void block_sweep_segments(const RunView& runs, const SellView& rest,
                          const double* diag, double a, const double* r,
                          double* z, double* y, bool last) {
  double sum[kW];
  for (index_t q = 0; q < runs.num_runs; ++q) {
    for (index_t t = 0; t < runs.len[q]; ++t) {
      block_run_row_sum(runs, q, t, z, sum);
      block_sweep_update(sum, runs.row[q] + t, diag, a, r, z, y, last);
    }
  }
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  for (index_t sl = 0; sl < rest.num_slices; ++sl) {
    const std::size_t base = rest.slice_ptr[sl];
    for (index_t lane = 0; lane < kC; ++lane) {
      const index_t slot = sl * kC + lane;
      const index_t g = rest.perm[slot];
      if (g < 0) continue;
      block_row_sum(rest.val + base + lane, rest.col + base + lane,
                    rest.len[slot], kSellSlice, z, sum);
      block_sweep_update(sum, g, diag, a, r, z, y, last);
    }
  }
}

}  // namespace portable

// ---- dispatch ---------------------------------------------------------------

#if defined(MSTEP_HAS_AVX2)
#define MSTEP_SIMD_DISPATCH(call) \
  if (simd_active()) return avx2::call; \
  return portable::call
#else
#define MSTEP_SIMD_DISPATCH(call) return portable::call
#endif

double dot_block(const double* x, const double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(dot_block(x, y, n));
}

double row_dot(const double* val, const index_t* col, const double* x,
               index_t begin, index_t end) {
  MSTEP_SIMD_DISPATCH(row_dot(val, col, x, begin, end));
}

double step_update_max(double a, const double* p, double* u, std::size_t n) {
  MSTEP_SIMD_DISPATCH(step_update_max(a, p, u, n));
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(axpy(a, x, y, n));
}

void xpay(const double* x, double b, double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(xpay(x, b, y, n));
}

void scale_copy(double a, const double* x, double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(scale_copy(a, x, y, n));
}

void hadamard(const double* x, const double* y, double* w, std::size_t n) {
  MSTEP_SIMD_DISPATCH(hadamard(x, y, w, n));
}

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract) {
  MSTEP_SIMD_DISPATCH(
      csr_spmv_rows(rp, col, val, x, y, row_begin, row_end, subtract));
}

void run_spmv_rows(const RunView& runs, const double* x, double* y,
                   index_t begin, index_t end, bool subtract) {
  MSTEP_SIMD_DISPATCH(run_spmv_rows(runs, x, y, begin, end, subtract));
}

void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract) {
  MSTEP_SIMD_DISPATCH(
      sell_spmv_slices(s, x, y, slice_begin, slice_end, subtract));
}

void sweep_segments(const RunView& runs, const SellView& rest,
                    const double* diag, double a, const double* r, double* z,
                    double* y, bool last) {
  MSTEP_SIMD_DISPATCH(sweep_segments(runs, rest, diag, a, r, z, y, last));
}

void block_dot(const double* x, const double* y, std::size_t rows,
               double* out) {
  MSTEP_SIMD_DISPATCH(block_dot(x, y, rows, out));
}

void block_step_update_max(const double* a, const double* p,
                           double* const* u, std::size_t rows, double* out) {
  MSTEP_SIMD_DISPATCH(block_step_update_max(a, p, u, rows, out));
}

void block_axpy(const double* a, const double* x, double* y,
                std::size_t rows) {
  MSTEP_SIMD_DISPATCH(block_axpy(a, x, y, rows));
}

void block_xpay(const double* x, const double* b, double* y,
                std::size_t rows) {
  MSTEP_SIMD_DISPATCH(block_xpay(x, b, y, rows));
}

void block_csr_rows(const index_t* rp, const index_t* col, const double* val,
                    const double* x, double* y, index_t row_begin,
                    index_t row_end, bool subtract) {
  MSTEP_SIMD_DISPATCH(
      block_csr_rows(rp, col, val, x, y, row_begin, row_end, subtract));
}

void block_run_rows(const RunView& runs, const double* x, double* y,
                    bool subtract) {
  MSTEP_SIMD_DISPATCH(block_run_rows(runs, x, y, subtract));
}

void block_sweep_segments(const RunView& runs, const SellView& rest,
                          const double* diag, double a, const double* r,
                          double* z, double* y, bool last) {
  MSTEP_SIMD_DISPATCH(
      block_sweep_segments(runs, rest, diag, a, r, z, y, last));
}

#undef MSTEP_SIMD_DISPATCH

}  // namespace mstep::la::simd
