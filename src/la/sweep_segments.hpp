// Storage of one colour class's strictly-lower or strictly-upper coupling
// rows for the multicolor sweep, in the form simd::sweep_segments sums.
//
// On a stencil or finite-element matrix in multicolour order, consecutive
// rows of a class usually couple to their neighbours through the same
// offsets: row i's segment reads columns i + o_0, i + o_1, ... for one
// offset list (col - row, in CSR order) shared by a whole stretch of rows.
// Such a stretch — a RUN — is the paper's diagonal storage (§3.1) cut to
// the rows that have it: the offsets are stored once and the values
// diagonal-major, so four rows' term k is one contiguous load of the
// values and one of the iterate.  Because every run row keeps its own CSR
// term order, each row's sum is still row_dot's 8-lane schedule over its
// segment, bitwise.  The rows no run covers go to SELL slices
// (la::SellSegments) and through the same fused update.
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"

namespace mstep::la {

class SweepSegments {
 public:
  /// A run covers at least this many consecutive rows: one vector of rows.
  static constexpr index_t kMinRun = static_cast<index_t>(simd::kSellSlice);

  SweepSegments() = default;

  /// Rows [row_begin, row_end) of `a`, row i contributing its CSR entries
  /// [seg_begin[i], seg_end[i]); both arrays are indexed by global row id
  /// (pass row_ptr().data() / the RowSplits arrays).  Runs are the maximal
  /// stretches of at least kMinRun consecutive rows with identical offset
  /// lists; every other row goes to rest().
  [[nodiscard]] static SweepSegments build(const CsrMatrix& a,
                                           const index_t* seg_begin,
                                           const index_t* seg_end,
                                           index_t row_begin,
                                           index_t row_end);

  /// Non-owning kernel view of the runs; valid while this object lives.
  [[nodiscard]] simd::RunView runs() const;
  /// The rows outside every run.
  [[nodiscard]] const SellSegments& rest() const { return rest_; }
  /// Rows summed on the run path.
  [[nodiscard]] index_t run_rows() const { return run_rows_; }

 private:
  std::vector<double> val_;
  std::vector<index_t> off_;
  std::vector<index_t> off_ptr_;
  std::vector<std::size_t> val_ptr_;
  std::vector<index_t> row_;
  std::vector<index_t> len_;
  index_t run_rows_ = 0;
  SellSegments rest_;
};

}  // namespace mstep::la
