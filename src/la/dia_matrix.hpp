// Storage of a sparse matrix by diagonals — the Madsen, Rodrigue & Karush
// (1976) scheme the paper uses on the CYBER 203/205 (Section 3.1,
// structure (3.2)) — cut to the row runs that have them.
//
// After the six-colour ordering most consecutive rows couple to their
// neighbours through the same offsets (col - row).  A stretch of at least
// four such rows is a RUN: its offset list is stored once and its values
// diagonal-major, one column of values per offset, so a product over the
// run is a short sequence of unit-stride vector operations — the layout
// the paper's memory-to-memory pipeline wants, with no zero fill outside
// the rows that have each diagonal.  The rows no run covers keep their CSR
// form.  A long stretch of them is read from the source CsrMatrix in place,
// so a matrix with few runs (a natural ordering, a skewed pattern) costs the
// store almost nothing to build or hold; the short stretches between runs
// (a stencil's boundary rows) are copied next to each other, so the product
// streams them instead of missing the cache on every scattered row.
//
// A value column is stored once however many terms read it.  The builder
// keeps a column only when no kept column has its length and its bits
// (compared with memcmp, so +0.0 and -0.0, or two NaN payloads, are never
// shared), and every term finds its column through one per-term table:
// term k of row row[q] + t of run q reads val[col[off_at[q] + k] + t]
// (simd::RunView's one addressing rule).  A plate's runs repeat a few
// hundred distinct columns many times over — at femplate:a=160 the store
// holds 0.52 MB of run values where a product reads 5.6 MB — so the values
// a product or a sweep reads stay in cache.
// A matrix with no repeated column keeps its columns in term order and
// pays only the table: one 4-byte index per term against at least 32
// bytes of values (a run has at least four rows), at most 12.5% more.
//
// Every stored term of every row keeps its CSR order, and the kernel sums
// row i's terms on row_dot's 8-lane schedule, so every product here is
// BITWISE CsrMatrix::multiply — the storage changes the memory traffic,
// never the bits.  One storage serves the outer CG products, their
// partitioned form (shard::ShardedOperator clips runs to its strips), the
// block products of solveMany, and the Algorithm-2 sweep, which views each
// run's lower and upper terms (la::SweepSegments).
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"

namespace mstep::la {

/// Square sparse matrix stored as constant-offset row runs over the CSR
/// matrix it was built from.
class DiaMatrix {
 public:
  /// A run covers at least this many consecutive rows: one vector of rows.
  static constexpr index_t kMinRun = static_cast<index_t>(simd::kSellSlice);

  /// A stretch of rows outside runs at least this long is read in place.
  static constexpr index_t kInPlaceRows = 64;

  /// A stretch [begin, end) of rows outside every run: row begin + j is
  /// row copy + j of the store's copy, or row begin + j of the source
  /// matrix when copy < 0.
  struct RowRange {
    index_t begin;
    index_t end;
    index_t copy;
  };

  DiaMatrix() = default;

  /// Build over `a`, keeping every stored entry (explicit zeros too, so
  /// the products stay bitwise CSR).  The run rows and the short rest
  /// stretches are copied; the long rest stretches are read from `a`
  /// itself, which must outlive the result at the same address.  `cuts`
  /// is an ascending row list from 0 to n; no run crosses a cut, so a
  /// caller that sweeps the cells between cuts separately (the sweep's
  /// strip x class cells) finds each run inside one cell.  Throws
  /// std::invalid_argument if the matrix is not square or the cuts are
  /// not ascending from 0 to n.
  [[nodiscard]] static DiaMatrix from_csr(const CsrMatrix& a,
                                          std::vector<index_t> cuts = {});
  /// A temporary would leave the rest rows dangling.
  static DiaMatrix from_csr(CsrMatrix&& a, std::vector<index_t> cuts = {}) =
      delete;

  /// The store with no runs: every product runs CsrMatrix's kernel on `a`
  /// in place (which must outlive the result), so it costs nothing to
  /// build or hold.  For a pipeline whose preconditioner does not read
  /// runs, where they would be a second copy of the values that only the
  /// outer product reads.
  [[nodiscard]] static DiaMatrix without_runs(const CsrMatrix& a);
  static DiaMatrix without_runs(CsrMatrix&& a) = delete;

  /// True when storing `a` by full-length diagonals would cost at most
  /// `max_fill` times its nonzero count.  No solve consults it; kept only
  /// because perfbench/ compiles against it, and deleted with
  /// solver::MatrixFormat.
  [[nodiscard]] static bool profitable(const CsrMatrix& a,
                                       double max_fill = 4.0);

  [[nodiscard]] index_t rows() const { return n_; }
  /// Distinct offsets that hold a nonzero — the KernelLog prices an SpMV
  /// as this many vector triads (Section 3.1).  Counted on the source
  /// matrix at each call.
  [[nodiscard]] index_t num_diagonals() const {
    return a_ == nullptr ? 0 : a_->num_nonzero_diagonals();
  }
  /// The row cuts the runs respect (0 and n included).
  [[nodiscard]] const std::vector<index_t>& cuts() const { return cuts_; }

  /// Non-owning kernel view of every run, all terms; valid while this
  /// matrix lives (moving it keeps the view valid).
  [[nodiscard]] simd::RunView runs() const;
  /// The stretches of rows outside every run, ascending; their products
  /// run CsrMatrix's kernel on their CSR rows.
  [[nodiscard]] const std::vector<RowRange>& rest() const { return rest_; }

  /// y = A x
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// Rows [begin, end) only: y[i] = (A x)[i], or y[i] -= (A x)[i] with
  /// `subtract` — bitwise the whole-matrix products on those rows, so any
  /// partition of the rows into ranges reproduces them.  `y` must already
  /// hold n entries.
  void multiply_rows(const Vec& x, Vec& y, index_t begin, index_t end,
                     bool subtract) const;

  /// Y = A X, or Y -= A X with `subtract`, on n x simd::kSellSlice
  /// row-interleaved blocks (la/simd.hpp): column c of Y is bitwise
  /// multiply / multiply_sub of column c of X.
  void multiply_block(const double* x, double* y, bool subtract) const;

  /// Values one product reads: one per term of every run row plus the
  /// CSR entries of the rows outside runs — nnz when every row is stored,
  /// however many of the run values are shared.  The scheme's value
  /// traffic, reported by the kernel bench.
  [[nodiscard]] std::size_t stored_values() const {
    return run_values_ + rest_values_;
  }
  /// Run values this object holds: each distinct value column once.
  [[nodiscard]] std::size_t held_values() const { return val_.size(); }
  /// Bytes this object holds: the distinct value columns, the per-term
  /// offsets and column table, the per-run indexing, the cuts, the rest
  /// stretches and the copied rest rows (the rows read in place belong to
  /// the source matrix).
  [[nodiscard]] std::size_t stored_bytes() const {
    return val_.size() * sizeof(double) +
           (off_.size() + col_.size() + cuts_.size()) * sizeof(index_t) +
           row_.size() * 4 * sizeof(index_t) +
           rest_.size() * sizeof(RowRange) +
           copy_val_.size() * sizeof(double) +
           (copy_col_.size() + copy_ptr_.size()) * sizeof(index_t);
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> cuts_;
  // Per run: first row, length, first term, terms.
  std::vector<index_t> row_;
  std::vector<index_t> len_;
  std::vector<index_t> off_ptr_;
  std::vector<index_t> terms_;
  // Per term of every run, CSR order: its offset and the start of its
  // value column in val_.
  std::vector<index_t> off_;
  std::vector<index_t> col_;
  std::vector<double> val_;  // the distinct value columns
  std::size_t run_values_ = 0;  // terms x rows over every run
  /// Rows [b, e) of stretch r as `kernel(rp, col, val, base, b', e')`: a
  /// CSR row kernel over rows [b', e') of (rp, col, val) writes row
  /// base + i of y for its row i.
  template <typename Kernel>
  void rest_rows(const RowRange& r, index_t b, index_t e,
                 const Kernel& kernel) const {
    if (r.copy < 0) {
      kernel(a_->row_ptr().data(), a_->col_idx().data(), a_->values().data(),
             0, b, e);
    } else {
      kernel(copy_ptr_.data() + r.copy, copy_col_.data(), copy_val_.data(),
             r.begin, b - r.begin, e - r.begin);
    }
  }

  const CsrMatrix* a_ = nullptr;  // the source: long rest stretches
  std::vector<RowRange> rest_;
  std::size_t rest_values_ = 0;  // CSR entries of the rest rows
  // The short rest stretches' rows, CSR, one after another.
  std::vector<index_t> copy_ptr_;
  std::vector<index_t> copy_col_;
  std::vector<double> copy_val_;
};

}  // namespace mstep::la
