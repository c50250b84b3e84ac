// SELL-C-sigma: the SIMD-friendly sliced sparse format (Kreutzer et al.).
//
// Rows are grouped into slices of C = 4 rows (one AVX2 double vector);
// within sorting windows of sigma rows, rows are ordered by descending
// length so slice-mates have similar lengths and padding stays small.
// Each slice stores its rows column-major — entry j of the row in lane r
// sits at val[slice_ptr[s] + j*C + r] — so the SpMV kernel walks j with
// all four lane-rows in one vector register, gathering x by column.
// Padding entries are (col = the slice's first row, val = 0) and masked
// out of the lane accumulators, never added.  One builder, SellSegments,
// makes this layout for whole matrices and for the sweep's leftover row
// segments (la::DiaMatrix keeps the rows no run covers in CSR form).
//
// The kernel (simd::sell_spmv_slices) accumulates each lane-row's entries
// through the same fixed 8-lane schedule as the CSR row kernel, so SELL
// SpMV is BITWISE identical to CSR SpMV — the format changes memory
// layout and speed, never bits.  The occupancy probe `profitable` says
// whether sigma-sorted padding is small (row lengths locally uniform);
// the benches report it, the solver no longer consults it.
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"

namespace mstep::la {

/// SELL-layout storage of per-row SEGMENTS of a CSR matrix — the one
/// SELL-C-sigma builder.  SellMatrix stores every row's whole CSR row in
/// it; the multicolor sweep stores the strictly-lower / strictly-upper row
/// parts of a colour class that do not fall in a constant-offset run
/// (la::SweepSegments keeps the runs), summed by simd::sweep_segments.
/// Each row's sum is bitwise row_dot over its segment; `perm` carries
/// GLOBAL row ids, letting the kernels update row-indexed vectors in
/// place.  Padded lanes, which the vector kernels gather and blend away,
/// point at their slice's first row, so a sum over a row list reads only
/// its segments' columns and the listed rows.
class SellSegments {
 public:
  /// C: rows per slice — one AVX2 vector of doubles.
  static constexpr index_t kSliceHeight =
      static_cast<index_t>(simd::kSellSlice);
  /// sigma: the row-sorting window, a multiple of C.  Sorting is local so
  /// the permutation stays cache-friendly; 64 keeps windows well inside L1
  /// while absorbing typical row-length jitter.
  static constexpr index_t kDefaultSigma = 64;

  SellSegments() = default;

  /// The listed rows of `a` (global ids, ascending), row i contributing
  /// its CSR entries [seg_begin[i], seg_end[i]); both arrays are indexed
  /// by global row id (pass row_ptr().data() / the RowSplits arrays).
  /// `sigma` is clamped to at least kSliceHeight.
  [[nodiscard]] static SellSegments build(const CsrMatrix& a,
                                          const index_t* seg_begin,
                                          const index_t* seg_end,
                                          const std::vector<index_t>& rows,
                                          index_t sigma = kDefaultSigma);

  [[nodiscard]] index_t num_slices() const {
    return slice_ptr_.empty() ? 0
                              : static_cast<index_t>(slice_ptr_.size()) - 1;
  }
  /// Stored entries including padding — the storage cost of the layout.
  [[nodiscard]] std::size_t stored_values() const { return val_.size(); }
  /// Bytes held: values, columns and the per-slot/per-slice indexing.
  [[nodiscard]] std::size_t stored_bytes() const {
    return val_.size() * (sizeof(double) + sizeof(index_t)) +
           (len_.size() + perm_.size()) * sizeof(index_t) +
           slice_ptr_.size() * sizeof(std::size_t);
  }
  /// Non-owning kernel view; valid while this object lives.
  [[nodiscard]] simd::SellView view() const;

 private:
  std::vector<double> val_;             // slice-column-major, padded
  std::vector<index_t> col_;            // same shape as val_
  std::vector<index_t> len_;            // per slot: real entries of its row
  std::vector<index_t> perm_;           // per slot: global row or -1
  std::vector<std::size_t> slice_ptr_;  // value offset per slice, +1 sentinel
};

/// A square CSR matrix in SELL-C-sigma: one SellSegments over every row.
class SellMatrix {
 public:
  /// Occupancy threshold for `profitable`: padded storage may exceed nnz
  /// by at most 25%.
  static constexpr double kDefaultMaxFill = 1.25;

  SellMatrix() = default;

  /// Convert from CSR.  Throws std::invalid_argument unless `a` is square
  /// (a padded lane gathers x at its slice's first row id).
  [[nodiscard]] static SellMatrix from_csr(
      const CsrMatrix& a, index_t sigma = SellSegments::kDefaultSigma);

  /// Occupancy probe (no conversion): true when the sigma-sorted padded
  /// entry count is at most max_fill * nnz.  False for empty matrices.
  [[nodiscard]] static bool profitable(
      const CsrMatrix& a, double max_fill = kDefaultMaxFill,
      index_t sigma = SellSegments::kDefaultSigma);

  /// Padded-entries / nnz the probe compares against max_fill (inf-free:
  /// returns 0 for empty matrices).
  [[nodiscard]] static double fill_estimate(
      const CsrMatrix& a, index_t sigma = SellSegments::kDefaultSigma);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t nnz() const { return nnz_; }
  [[nodiscard]] index_t num_slices() const { return slices_.num_slices(); }
  /// Stored entries including padding — the storage cost of the layout.
  [[nodiscard]] std::size_t stored_values() const {
    return slices_.stored_values();
  }
  /// Cached from the CSR source — the kernel-log pricing of an SpMV.
  [[nodiscard]] index_t num_nonzero_diagonals() const { return ndiags_; }

  /// y = A x  (bitwise identical to CsrMatrix::multiply)
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// Non-owning kernel view; valid while this matrix lives.
  [[nodiscard]] simd::SellView view() const { return slices_.view(); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t nnz_ = 0;
  index_t ndiags_ = 0;
  SellSegments slices_;
};

}  // namespace mstep::la
