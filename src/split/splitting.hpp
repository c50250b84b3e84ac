// Splittings K = P - Q of an SPD matrix (Section 2.1).
//
// A splitting supplies the P^{-1} application; the m-step preconditioner is
// a polynomial in G = P^{-1}Q composed with P^{-1}.  P must be symmetric for
// the parametrized preconditioner (2.6) to be symmetric; Jacobi and SSOR
// both qualify.
#pragma once

#include <memory>
#include <string>

#include "la/csr_matrix.hpp"
#include "la/vector.hpp"

namespace mstep::split {

/// Abstract splitting K = P - Q.  Implementations hold a reference to the
/// matrix; the caller keeps it alive.  An instance may own mutable scratch
/// (SSOR's forward-substitution vector), so one instance must not be
/// applied from several threads at once — concurrent users (the batch
/// engine) hold one instance per worker lane.
class Splitting {
 public:
  virtual ~Splitting() = default;

  [[nodiscard]] virtual index_t size() const = 0;

  /// y = P^{-1} x.
  virtual void apply_pinv(const Vec& x, Vec& y) const = 0;

  /// Human-readable name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Jacobi splitting: P = D = diag(K).  The Dubois–Greenbaum–Rodrigue
/// truncated Neumann series preconditioner is the unparametrized m-step
/// method on this splitting.
class JacobiSplitting : public Splitting {
 public:
  explicit JacobiSplitting(const la::CsrMatrix& k);

  [[nodiscard]] index_t size() const override {
    return static_cast<index_t>(inv_diag_.size());
  }
  void apply_pinv(const Vec& x, Vec& y) const override;
  [[nodiscard]] std::string name() const override { return "jacobi"; }

  [[nodiscard]] const Vec& inverse_diagonal() const { return inv_diag_; }

 private:
  Vec inv_diag_;
};

/// SSOR splitting (eq. 2.1):
///   P = (1 / (omega (2 - omega))) (D - omega L) D^{-1} (D - omega U)
/// where K = D - L - U.  apply_pinv runs a forward substitution, a diagonal
/// scaling and a backward substitution, row-sequentially in the matrix's
/// ordering — so applying it to a multicolour-permuted matrix yields the
/// multicolour SSOR operator.
class SsorSplitting : public Splitting {
 public:
  SsorSplitting(const la::CsrMatrix& k, double omega = 1.0);

  [[nodiscard]] index_t size() const override { return k_->rows(); }
  void apply_pinv(const Vec& x, Vec& y) const override;
  [[nodiscard]] std::string name() const override { return "ssor"; }

  [[nodiscard]] double omega() const { return omega_; }

 private:
  const la::CsrMatrix* k_;
  Vec diag_;
  double omega_;
  mutable Vec fwd_;  // forward-substitution scratch, reused across applies
};

/// Richardson splitting P = (1/theta) I — mostly for tests (G = I - theta K
/// has a transparent spectrum).
class RichardsonSplitting : public Splitting {
 public:
  RichardsonSplitting(index_t n, double theta) : n_(n), theta_(theta) {}

  [[nodiscard]] index_t size() const override { return n_; }
  void apply_pinv(const Vec& x, Vec& y) const override;
  [[nodiscard]] std::string name() const override { return "richardson"; }

 private:
  index_t n_;
  double theta_;
};

}  // namespace mstep::split
