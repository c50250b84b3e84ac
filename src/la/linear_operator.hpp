// Minimal square-operator view for the solve path.
//
// Algorithm 1 needs only y = A x (and the derived residual update) from
// the system matrix, so the PCG driver is written against this non-owning
// view rather than a concrete storage format.  The solver's outer products
// run on the Madsen–Rodrigue–Karush diagonal storage cut to row runs
// (DiaOperator, the layout the paper times in Section 3.1), and so does
// the generic m-step engine's K z, which takes the same view.  The CSR
// view serves callers that hold only a CsrMatrix (pcg_solve's CsrMatrix
// overloads, the baselines); the SELL view serves the benches.  All three
// are bitwise CSR.  These views are serial; the threaded one is
// shard::ShardedOperator.  A block of right-hand sides
// (core::pcg_solve_block) runs on the run storage itself, not through a
// view.
#pragma once

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/vector.hpp"

namespace mstep::la {

/// Non-owning view of a square linear operator.  The viewed matrix must
/// outlive the view.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual index_t rows() const = 0;

  /// y = A x
  virtual void multiply(const Vec& x, Vec& y) const = 0;

  /// y = y - A x
  virtual void multiply_sub(const Vec& x, Vec& y) const = 0;

  /// Number of nonzero (generalized) diagonals — the instrumentation
  /// stream prices an SpMV as this many vector triads (Section 3.1).
  [[nodiscard]] virtual index_t num_nonzero_diagonals() const = 0;

  /// r = b - A x
  void residual(const Vec& b, const Vec& x, Vec& r) const {
    r = b;
    multiply_sub(x, r);
  }
};

/// CSR-backed view.
class CsrOperator final : public LinearOperator {
 public:
  explicit CsrOperator(const CsrMatrix& a) : a_(&a) {}

  [[nodiscard]] index_t rows() const override { return a_->rows(); }
  void multiply(const Vec& x, Vec& y) const override { a_->multiply(x, y); }
  void multiply_sub(const Vec& x, Vec& y) const override {
    a_->multiply_sub(x, y);
  }
  [[nodiscard]] index_t num_nonzero_diagonals() const override {
    return a_->num_nonzero_diagonals();
  }

 private:
  const CsrMatrix* a_;
};

/// Run-storage-backed view (the CYBER 203/205 diagonal layout cut to row
/// runs): the solver's one operator.  Bitwise identical to CsrOperator.
class DiaOperator final : public LinearOperator {
 public:
  explicit DiaOperator(const DiaMatrix& a) : a_(&a) {}

  [[nodiscard]] index_t rows() const override { return a_->rows(); }
  void multiply(const Vec& x, Vec& y) const override { a_->multiply(x, y); }
  void multiply_sub(const Vec& x, Vec& y) const override {
    a_->multiply_sub(x, y);
  }
  [[nodiscard]] index_t num_nonzero_diagonals() const override {
    return a_->num_diagonals();
  }

 private:
  const DiaMatrix* a_;
};

/// SELL-C-sigma-backed view (the SIMD-sliced layout).  Bitwise identical
/// to CsrOperator — the sliced kernel reproduces the CSR row-sum schedule.
class SellOperator final : public LinearOperator {
 public:
  explicit SellOperator(const SellMatrix& a) : a_(&a) {}

  [[nodiscard]] index_t rows() const override { return a_->rows(); }
  void multiply(const Vec& x, Vec& y) const override { a_->multiply(x, y); }
  void multiply_sub(const Vec& x, Vec& y) const override {
    a_->multiply_sub(x, y);
  }
  [[nodiscard]] index_t num_nonzero_diagonals() const override {
    return a_->num_nonzero_diagonals();
  }

 private:
  const SellMatrix* a_;
};

}  // namespace mstep::la
