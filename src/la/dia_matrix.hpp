// Storage of a sparse matrix by diagonals and SpMV by diagonals —
// the Madsen, Rodrigue & Karush (1976) scheme the paper uses on the
// CYBER 203/205 (Section 3.1, structure (3.2)).
//
// After the six-colour ordering the stiffness matrix has a bounded number
// of nonzero diagonals; multiplying diagonal-by-diagonal turns SpMV into a
// short sequence of long vector triads — exactly what a memory-to-memory
// pipeline machine wants.  On modern CPUs the same layout is a unit-stride,
// branch-free kernel; bench_kernels compares it against CSR.
#pragma once

#include <vector>

#include "la/csr_matrix.hpp"
#include "la/vector.hpp"

namespace mstep::la {

/// Square sparse matrix stored by (generalized) diagonals.
///
/// Diagonal with offset k holds entries A(i, i+k).  Each diagonal is stored
/// at full length n with zeros outside its valid range, so the SpMV inner
/// loops have no per-diagonal index arithmetic beyond a start/stop clamp.
class DiaMatrix {
 public:
  DiaMatrix() = default;

  /// Convert from CSR, keeping every diagonal that holds at least one
  /// nonzero.  Throws if the matrix is not square.
  static DiaMatrix from_csr(const CsrMatrix& a);

  /// Bandedness probe: true when storing `a` by diagonals costs at most
  /// `max_fill` times its nonzero count (each diagonal is stored at full
  /// length n).  Multicolour-permuted stencils pass easily; a matrix with
  /// scattered structure fails and should stay in CSR.
  [[nodiscard]] static bool profitable(const CsrMatrix& a,
                                       double max_fill = 4.0);

  [[nodiscard]] index_t rows() const { return n_; }
  [[nodiscard]] index_t num_diagonals() const {
    return static_cast<index_t>(offsets_.size());
  }
  [[nodiscard]] const std::vector<index_t>& offsets() const {
    return offsets_;
  }
  /// diagonals()[d][i] = A(i, i + offsets()[d]); full length n per diagonal.
  [[nodiscard]] const std::vector<std::vector<double>>& diagonals() const {
    return diag_;
  }

  /// y = A x
  void multiply(const Vec& x, Vec& y) const;

  /// y = y - A x
  void multiply_sub(const Vec& x, Vec& y) const;

  /// Rows [begin, end) only: y[i] += (A x)[i], or -= with `subtract`,
  /// accumulating the diagonals in offset order.  Per element that is the
  /// order of the whole-matrix products, so any partition of the rows into
  /// ranges reproduces them bitwise.  `y` must already hold n entries.
  void multiply_rows(const Vec& x, Vec& y, index_t begin, index_t end,
                     bool subtract) const;

  /// Total stored doubles (n per diagonal) — the storage cost of the
  /// scheme, reported by the kernel bench.
  [[nodiscard]] std::size_t stored_values() const {
    return offsets_.size() * static_cast<std::size_t>(n_);
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> offsets_;          // sorted diagonal offsets
  std::vector<std::vector<double>> diag_;  // diag_[d][i] = A(i, i+offset_d)
};

}  // namespace mstep::la
