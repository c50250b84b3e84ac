// Compressed sparse row matrices and the COO assembly builder.
//
// CSR is the library's canonical sparse format.  The finite element
// assembler produces COO triplets; CooBuilder compresses (summing
// duplicates, as assembly requires) into CSR.  Symmetric permutation
// supports the multicolor reordering of Section 3 of the paper.
#pragma once

#include <vector>

#include "la/dense_matrix.hpp"
#include "la/vector.hpp"

namespace mstep::la {

/// Sparse matrix in CSR form.  Column indices within each row are sorted.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col, std::vector<double> val);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t nnz() const {
    return static_cast<index_t>(col_.size());
  }

  [[nodiscard]] const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<index_t>& col_idx() const { return col_; }
  [[nodiscard]] const std::vector<double>& values() const { return val_; }
  [[nodiscard]] std::vector<double>& values() { return val_; }

  /// Entry lookup (binary search within the row); 0 if absent.
  [[nodiscard]] double at(index_t i, index_t j) const;

  /// y = A x
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x  (residual update form used in the CG loop)
  void multiply_sub(const Vec& x, Vec& y) const;

  /// r = b - A x
  void residual(const Vec& b, const Vec& x, Vec& r) const;

  /// Diagonal entries as a vector.  Throws if a diagonal entry is absent.
  [[nodiscard]] Vec diagonal() const;

  /// Symmetric permutation B = A(p, p): row/col i of B is row/col p[i] of A.
  /// Each row's entries are sorted by their new column, stably: entries
  /// that share a column keep their order in A.
  [[nodiscard]] CsrMatrix permuted_symmetric(
      const std::vector<index_t>& perm) const;
  /// The same with the inverse permutation supplied (inv[perm[i]] == i),
  /// for a caller that already holds it.
  [[nodiscard]] CsrMatrix permuted_symmetric(
      const std::vector<index_t>& perm, const std::vector<index_t>& inv) const;

  /// Exact transpose.
  [[nodiscard]] CsrMatrix transposed() const;

  /// Numerical symmetry check: max |A - A^T| entry.
  [[nodiscard]] double symmetry_error() const;

  /// Dense copy for verification on small systems.
  [[nodiscard]] DenseMatrix to_dense() const;

  /// Maximum number of nonzeros in any row (the paper's stencil bound: 14
  /// for the plane-stress plate).
  [[nodiscard]] index_t max_row_nnz() const;

  /// Number of distinct nonzero diagonals (k = j - i values present).
  [[nodiscard]] index_t num_nonzero_diagonals() const;

  /// Bandwidth: max |j - i| over the nonzero entries (0 for diagonal or
  /// empty matrices).  Reported as structure metadata by the mstep_solve
  /// driver; the bandedness fact DiaMatrix::profitable counts distinct
  /// diagonals instead.
  [[nodiscard]] index_t bandwidth() const;

 private:
  /// permuted_symmetric sorts a row this short by insertion in place.
  static constexpr index_t kInsertionSortRow = 32;

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_;
  std::vector<index_t> col_;
  std::vector<double> val_;
};

/// Accumulates (i, j, v) triplets and compresses to CSR, summing duplicate
/// coordinates — the semantics of finite element assembly.
class CooBuilder {
 public:
  CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {}

  void add(index_t i, index_t j, double v);

  /// Number of raw (pre-compression) triplets.
  [[nodiscard]] std::size_t triplets() const { return i_.size(); }

  /// Compress to CSR.  Entries with |v| == 0 after summation are kept
  /// (structural zeros can matter for stencil censuses); pass drop_zeros
  /// to remove them.
  [[nodiscard]] CsrMatrix build(bool drop_zeros = false) const;

 private:
  index_t rows_;
  index_t cols_;
  std::vector<index_t> i_;
  std::vector<index_t> j_;
  std::vector<double> v_;
};

/// CSR identity.
[[nodiscard]] CsrMatrix csr_identity(index_t n);

}  // namespace mstep::la
