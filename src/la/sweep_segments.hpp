// One colour class's strictly-lower or strictly-upper coupling rows for the
// multicolor sweep, in the form simd::sweep_segments and its block form
// simd::block_sweep_segments sum — a VIEW of the solve's one matrix
// storage, not a copy of it.
//
// la::DiaMatrix stores the matrix as constant-offset row runs (the paper's
// §3.1 diagonal storage cut to the rows that have it) over the CSR rows.  A
// run row's CSR terms are its lower-class entries, its diagonal, then its
// upper-class entries, so the lower half of every row of a run is the same
// leading stretch of the run's terms and the upper half the same trailing
// stretch.  A sweep segment therefore sums, per run, a term begin and a
// count over the store's own offsets, column table and values: four rows'
// term k is one contiguous load of values and one of the iterate.  Each
// row's sum is row_dot's 8-lane schedule over its segment (term k - k0 to
// lane (k - k0) mod 8), bitwise.  The rows of the class that no usable run
// covers keep their segment as SELL slices (la::SellSegments) and go
// through the same fused update.
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"

namespace mstep::la {

/// Rows [begin, end).
struct RowSpan {
  index_t begin;
  index_t end;
};

class SweepSegments {
 public:
  SweepSegments() = default;

  /// The rows of `spans` (ascending, disjoint) of `a`, row i contributing
  /// its CSR entries [seg_begin[i], seg_end[i]); both arrays are indexed
  /// by global row id (pass row_ptr().data() / the RowSplits arrays).
  /// `store` must be la::DiaMatrix::from_csr(a, cuts) with every span
  /// bound among the cuts, and must outlive this view.  A store run whose
  /// rows all start and end their segment at the same terms is summed in
  /// place; the rows of every other run, and those outside runs, go to
  /// rest().
  [[nodiscard]] static SweepSegments build(const DiaMatrix& store,
                                           const CsrMatrix& a,
                                           const index_t* seg_begin,
                                           const index_t* seg_end,
                                           const std::vector<RowSpan>& spans);

  /// Non-owning kernel view of the runs; valid while this object and the
  /// store live.
  [[nodiscard]] simd::RunView runs() const;
  /// The rows outside every summed run.
  [[nodiscard]] const SellSegments& rest() const { return rest_; }
  /// Rows summed on the run path.
  [[nodiscard]] index_t run_rows() const { return run_rows_; }
  /// Bytes this view holds itself (the store's runs are not counted).
  [[nodiscard]] std::size_t stored_bytes() const {
    return row_.size() * 4 * sizeof(index_t) + rest_.stored_bytes();
  }

 private:
  const double* val_ = nullptr;   // the store's values
  const index_t* off_ = nullptr;  // the store's offsets
  const index_t* col_ = nullptr;  // the store's column table
  // Per summed run: first row, length, first summed term, terms.
  std::vector<index_t> row_;
  std::vector<index_t> len_;
  std::vector<index_t> off_at_;
  std::vector<index_t> count_;
  index_t run_rows_ = 0;
  SellSegments rest_;
};

}  // namespace mstep::la
