// The one SIMD kernel layer behind every hot loop in the library.
//
// Every kernel here has two implementations — a portable scalar twin and an
// explicit AVX2 path (src/la/simd_avx2.cpp, compiled with -mavx2 and
// runtime-dispatched) — that execute the SAME sequence of IEEE-754
// operations, so the results are BITWISE identical whichever path runs.
// That is what lets the dispatch decision (CPU support, the MSTEP_SIMD env
// var, the test force API) be taken anywhere without touching the
// determinism contract: serial == threaded == SIMD-on == SIMD-off.
//
// The trick is a FIXED-LANE summation schedule.  A reduction over n terms
// is split into L interleaved lane sums (term i goes to lane i mod L, each
// lane accumulated left-to-right) combined in fixed order l0 + l1 + ... —
// the natural shape of a vector accumulator register, and one a scalar
// loop reproduces exactly with L independent accumulators:
//
//   * dot blocks use L = 8 (two 4-wide AVX2 accumulators; breaks the FP
//     add dependency chain 8x, which is the entire scalar bottleneck);
//   * sparse row sums (CSR SpMV, the multicolor sweep's lower/upper sums,
//     SELL-C-sigma lanes) also use L = 8 (two accumulators + x gathers —
//     one accumulator would serialize the row on the FP add latency).
//
// la::kReductionBlock (1024) is a multiple of both, so the threaded
// fixed-block reduction keeps lane phase across block boundaries.
// Elementwise kernels (axpy, scale, ...) need no schedule: each
// element's mul+add order is the serial one.  No kernel may use FMA — the
// portable twin compiles to separate mul and add on every target (the
// build forces -ffp-contract=off), so the AVX2 path uses _mm256_mul_pd +
// _mm256_add_pd, never _mm256_fmadd_pd.
//
// NaN payloads are the one exception, on every path.  A NaN that meets
// only numbers passes through every mul, add, subtract and divide with
// its bits, so it keeps them.  Where two NaNs meet in one operation (a NaN
// coupling times a NaN iterate entry, two NaN terms of one sum) IEEE 754
// leaves open which payload survives; x86 keeps the first operand's, and
// the compiler picks the operand order of a commutative mul or add.  So
// there the payload is unspecified: the portable and AVX2 twins, and a
// single-vector kernel and its block form, agree on where the NaNs are,
// not on which NaN each is.
#pragma once

#include <cstddef>

#include "la/vector.hpp"

namespace mstep::la::simd {

/// Lane counts of the fixed summation schedules (see file comment).
inline constexpr std::size_t kDotLanes = 8;
inline constexpr std::size_t kRowLanes = 8;
/// Rows per SELL-C-sigma slice — one AVX2 double register.  Distinct from
/// kRowLanes: the slice height is the number of rows processed together,
/// the lane count is the summation schedule WITHIN each row.
inline constexpr std::size_t kSellSlice = 4;

/// Dispatch control.  kAuto follows the MSTEP_SIMD environment variable
/// ("off"/"0"/"scalar" forces the portable twin, "on"/"1"/"avx2" and unset
/// use the vector path when the CPU has it); the force modes override the
/// environment from code (tests, the bench harness).
enum class SimdMode { kAuto, kForceScalar, kForceVector };

void set_simd_mode(SimdMode mode);
[[nodiscard]] SimdMode simd_mode();
/// True when the AVX2 path was compiled in (x86-64 and the compiler took
/// -mavx2).
[[nodiscard]] bool simd_compiled();
/// True when the AVX2 path is compiled in AND this CPU executes it.
[[nodiscard]] bool simd_available();
/// The resolved decision for the next kernel call.
[[nodiscard]] bool simd_active();
/// "avx2" when simd_active(), else "scalar" — for reports and bench rows.
[[nodiscard]] const char* simd_isa();

/// RAII force-scalar/force-vector scope for tests and benches.
class SimdModeGuard {
 public:
  explicit SimdModeGuard(SimdMode mode) : saved_(simd_mode()) {
    set_simd_mode(mode);
  }
  ~SimdModeGuard() { set_simd_mode(saved_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdMode saved_;
};

// ---- reductions (fixed-lane schedule) ---------------------------------------

/// 8-lane dot product over [0, n) — the per-block kernel of the
/// deterministic blocked reduction (la::dot / par::Execution::dot).
[[nodiscard]] double dot_block(const double* x, const double* y,
                               std::size_t n);

/// 8-lane sparse row sum: sum_k val[k] * x[col[k]] over k in [begin, end).
/// Shared by CSR SpMV and the multicolor sweeps; SELL lanes reproduce the
/// same per-row schedule, which is what makes the formats bitwise-equal.
[[nodiscard]] double row_dot(const double* val, const index_t* col,
                             const double* x, index_t begin, index_t end);

/// Fused CG update u[i] += a * p[i] over [0, n), returning max |a * p[i]|,
/// or NaN when any step is NaN (so a NaN never passes a stopping test).
/// The max reduction is order-insensitive over non-negative values, so no
/// schedule is needed.
[[nodiscard]] double step_update_max(double a, const double* p, double* u,
                                     std::size_t n);

// ---- elementwise BLAS-1 (serial accumulation order per element) -------------

void axpy(double a, const double* x, double* y, std::size_t n);
void xpay(const double* x, double b, double* y, std::size_t n);
/// y[i] = a * x[i]; x == y aliasing allowed (in-place scale).
void scale_copy(double a, const double* x, double* y, std::size_t n);
void hadamard(const double* x, const double* y, double* w, std::size_t n);

// ---- sparse kernels ---------------------------------------------------------

/// CSR rows [row_begin, row_end): y[i] = (or -=) the 8-lane row sum.
void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract);

/// Non-owning view of SELL-C-sigma storage (see la/sell_matrix.hpp).
/// C = kSellSlice rows per slice; values/columns slice-column-major:
/// entry j of the row in slot (slice s, lane r) is val[slice_ptr[s] + j*C
/// + r].  len[s*C + r] is that row's entry count, perm[s*C + r] its global
/// row index (-1 marks a slot with no row: past the last row, or a padding
/// slot of a segment view).
struct SellView {
  const double* val = nullptr;
  const index_t* col = nullptr;
  const index_t* len = nullptr;
  const index_t* perm = nullptr;
  const std::size_t* slice_ptr = nullptr;
  index_t num_slices = 0;
};

/// SELL slices [slice_begin, slice_end): for each real slot, y[perm[slot]]
/// = (or -=) the slot row's 8-lane sum.  Lane l of row r accumulates its
/// entries j with j mod 8 == l in increasing j — the exact schedule of
/// row_dot — so SELL SpMV is bitwise CSR SpMV.
void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract);

/// Non-owning view of constant-offset row runs (la::DiaMatrix, and the
/// sweep's per-class views of them, la::SweepSegments).  Run q covers rows
/// [row[q], row[q] + len[q]); every one of its rows couples to the same
/// offsets (col - row, in CSR order), stored once, with the values
/// diagonal-major: one column of len[q] values per offset.  The per-term
/// arrays off and col are indexed alike: a view sums count[q] consecutive
/// terms of each run from term off_at[q] on, and term k of row row[q] + t
/// is val[col[off_at[q] + k] + t] * x[row[q] + t + off[off_at[q] + k]] —
/// the one addressing rule every run kernel follows.  A sub-view (a row
/// window, a strip's clipped runs, a sweep half) has its own row, len,
/// off_at and count and shares val, off and col, since off_at indexes both
/// per-term arrays.  A value
/// column may serve many terms of many runs: the store keeps each distinct
/// column once, bit for bit.  Four rows' term k is one contiguous load of
/// val and one of x — no column indices, no gather.
struct RunView {
  const double* val = nullptr;
  const index_t* off = nullptr;
  const index_t* col = nullptr;     // per term: its value column in val
  const index_t* row = nullptr;
  const index_t* len = nullptr;
  const index_t* off_at = nullptr;  // per run: first summed term
  const index_t* count = nullptr;   // per run: terms summed
  index_t num_runs = 0;
};

/// The AVX2 run kernels (run_spmv_rows, sweep_segments, block_run_rows,
/// block_sweep_segments) are one family: each run is dispatched once on
/// its term count to a kernel compiled for that count (0-16; a longer run
/// loops over its terms), in one of two shapes — four rows per register,
/// or one block row, four columns, per register.  Each keeps row_dot's
/// schedule: up to 8 terms summed left to right plus one + 0.0, more
/// with term k in lane k mod 8.

/// Run rows clipped to [begin, end): y[i] = (or -=) row i's sum for every
/// run row i in the range, no other entry of y touched.  Each sum follows
/// row_dot's schedule (term k to lane k mod 8), so with every term of
/// every row stored this is bitwise csr_spmv_rows over those rows, whatever
/// the range.
void run_spmv_rows(const RunView& runs, const double* x, double* y,
                   index_t begin, index_t end, bool subtract);

/// One multicolor-sweep phase over one colour class's row segments, fused:
/// the rows of `runs` and the real slots of `rest` (SELL slices whose perm
/// carries global row ids).  Row i's sum over its segment follows row_dot's
/// schedule (term k to lane k mod 8).  With `r` set: z[i] = (y[i] - sum +
/// a * r[i]) / diag[i], then y[i] = last ? 0 : -sum.  With r == nullptr
/// (the save phase): y[i] = -sum.  y[i] - sum is bitwise (-sum) + y[i] for
/// every sum that is not NaN; it is written as the subtraction because a
/// compiler may fold a negate-then-add into it, which would flip a NaN's
/// sign on one path only.  The sums read z only through the stored
/// couplings (and rest's padded lanes, which are blended away), so rows are
/// updated in place — legal exactly because the multicolor ordering makes
/// a class's rows independent.
void sweep_segments(const RunView& runs, const SellView& rest,
                    const double* diag, double a, const double* r, double* z,
                    double* y, bool last);

// ---- block kernels: kSellSlice vectors per pass ------------------------------
//
// A block holds kSellSlice vectors of n entries, row-interleaved (n x
// kSellSlice, row-major): entry i of column c sits at x[i * kSellSlice + c],
// so one block row is one AVX2 register.  Each kernel loads a matrix entry
// once, broadcasts it, and applies it to every column with one contiguous
// load — no gather.  Column c receives exactly the operation sequence the
// single-vector kernel of the same name applies to vector c, so every
// column is bitwise its own single-vector result.  Per-column scalars
// (a, b) and results (out) are arrays of kSellSlice.

/// dot_block per column over rows [0, rows).
void block_dot(const double* x, const double* y, std::size_t rows,
               double* out);

/// step_update_max per column, the iterate held as separate column
/// vectors: u[c][i] += a[c] * p(i, c), out[c] = the column's max |step|.
/// A null u[c] skips the update of column c (a finished column's solution
/// stays as it stopped).
void block_step_update_max(const double* a, const double* p,
                           double* const* u, std::size_t rows, double* out);

/// axpy / xpay per column: y(i, c) += a[c] * x(i, c);
/// y(i, c) = x(i, c) + b[c] * y(i, c).
void block_axpy(const double* a, const double* x, double* y,
                std::size_t rows);
void block_xpay(const double* x, const double* b, double* y,
                std::size_t rows);

/// csr_spmv_rows per column.
void block_csr_rows(const index_t* rp, const index_t* col, const double* val,
                    const double* x, double* y, index_t row_begin,
                    index_t row_end, bool subtract);

/// run_spmv_rows per column, over every row of every run: term
/// k is a broadcast of its value times one contiguous load of the block
/// row of x.
void block_run_rows(const RunView& runs, const double* x, double* y,
                    bool subtract);

/// sweep_segments per column: the rows of `runs` and the real slots of
/// `rest` (each slot's row summed like block_csr_rows sums a row), each
/// block row updated in sweep_segments' operation order, so a lone NaN
/// keeps the single-vector bits.
void block_sweep_segments(const RunView& runs, const SellView& rest,
                          const double* diag, double a, const double* r,
                          double* z, double* y, bool last);

}  // namespace mstep::la::simd
