// Preconditioner interface for Algorithm 1.
#pragma once

#include <string>

#include "la/vector.hpp"

namespace mstep::core {

/// Symmetric positive definite preconditioner M; apply() computes
/// z = M^{-1} r (step (6) of Algorithm 1, "solve M r-hat = r").
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  [[nodiscard]] virtual index_t size() const = 0;

  /// z = M^{-1} r.  z is output only: it is resized to size() and every
  /// entry is written, none read, so the caller may pass a buffer holding
  /// anything — PCG passes the one that held w = K p.
  virtual void apply(const Vec& r, Vec& z) const = 0;

  /// Number of inner steps (m); 0 for the identity (plain CG).
  [[nodiscard]] virtual int steps() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// M = I: plain conjugate gradients.
class IdentityPreconditioner : public Preconditioner {
 public:
  explicit IdentityPreconditioner(index_t n) : n_(n) {}

  [[nodiscard]] index_t size() const override { return n_; }
  void apply(const Vec& r, Vec& z) const override { z = r; }
  [[nodiscard]] int steps() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "identity"; }

 private:
  index_t n_;
};

}  // namespace mstep::core
