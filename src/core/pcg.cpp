#include "core/pcg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/multicolor_mstep.hpp"
#include "core/pcg_iterate.hpp"
#include "la/simd.hpp"
#include "par/execution.hpp"

namespace mstep::core {

namespace {

using detail::kW;

void validate(index_t n, const Vec& f, const Preconditioner& m,
              const PcgOptions& options, const Vec& u0) {
  if (static_cast<index_t>(f.size()) != n || m.size() != n) {
    throw std::invalid_argument("pcg_solve: dimension mismatch");
  }
  if (!(options.tolerance > 0.0)) {
    throw std::invalid_argument("pcg_solve: tolerance must be positive");
  }
  if (options.max_iterations <= 0) {
    throw std::invalid_argument("pcg_solve: max_iterations must be positive");
  }
  if (!u0.empty() && static_cast<index_t>(u0.size()) != n) {
    throw std::invalid_argument("pcg_solve: initial guess has " +
                                std::to_string(u0.size()) +
                                " entries, system has " + std::to_string(n));
  }
}

/// pcg_solve's backend: one vector through par::Execution, from the guess
/// u0 (zero if empty), with z and w sharing ws.zw.
struct VectorBackend {
  const la::LinearOperator& k;
  const Vec& f;
  const Preconditioner& m;
  const par::Execution& ex;
  const Vec& u0;
  PcgWorkspace& ws;
  PcgResult& res;

  [[nodiscard]] index_t diagonals() const { return k.num_nonzero_diagonals(); }
  void residual0() {
    if (u0.empty()) {
      res.solution.assign(static_cast<std::size_t>(k.rows()), 0.0);
    } else {
      res.solution = u0;
    }
    k.residual(f, res.solution, ws.r);
  }
  void residual0_nrm2(double* out) const { out[0] = ex.nrm2(ws.r); }
  void rhs_nrm2(double* out) const { out[0] = ex.nrm2(f); }
  void nrm2(const Vec& x, double* out) const { out[0] = ex.nrm2(x); }
  void dot(const Vec& x, const Vec& y, double* out) const {
    out[0] = ex.dot(x, y);
  }
  void multiply(const Vec& x, Vec& y) const { k.multiply(x, y); }
  void precondition(const Vec& r, Vec& z, int /*nlive*/) const {
    m.apply(r, z);
  }
  static void copy(const Vec& x, Vec& y) { y = x; }
  void step_update_max(const double* a, const Vec& p, double* out) const {
    out[0] = ex.step_update_max(a[0], p, res.solution);
  }
  void axpy(const double* a, const Vec& x, Vec& y) const {
    ex.axpy(a[0], x, y);
  }
  void xpay(const Vec& x, const double* b, Vec& y) const {
    ex.xpay(x, b[0], y);
  }
  static bool converged(double value, double bound) { return value < bound; }
  /// zw is dead once the solve stops: it holds the final residual.
  void retire(std::size_t /*c*/, bool final_residual) const {
    if (!final_residual) return;
    k.residual(f, res.solution, ws.zw);
    res.final_residual2 = ex.nrm2(ws.zw);
  }
};

/// pcg_solve_block's backend: the columns as one row-interleaved block on
/// the run storage's serial kernels, from a zero guess.  Column c's iterate
/// is res[c].solution itself; retiring the column nulls u[c], which freezes
/// it, and zeroes its r and p, which every kernel keeps zero.
struct BlockBackend {
  const la::DiaMatrix& k;
  util::Span<Vec> fs;
  const MulticolorMStepSsor& m;
  PcgWorkspace& ws;
  PcgResult* res;
  std::size_t rows;
  double* u[kW] = {};

  [[nodiscard]] index_t diagonals() const { return k.num_diagonals(); }
  /// u0 = 0, in residual()'s order: r = f, then r -= K u.  The columns
  /// past fs.size() stay zero throughout.
  void residual0() {
    ws.r.resize(rows * kW);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t c = 0; c < kW; ++c) {
        ws.r[i * kW + c] = c < fs.size() ? fs[c][i] : 0.0;
      }
    }
    ws.p.assign(rows * kW, 0.0);  // u0 as a block
    k.multiply_block(ws.p.data(), ws.r.data(), /*subtract=*/true);
    for (std::size_t c = 0; c < fs.size(); ++c) {
      res[c].solution.assign(rows, 0.0);
      u[c] = res[c].solution.data();
    }
  }
  void residual0_nrm2(double* out) const { nrm2(ws.r, out); }
  void rhs_nrm2(double* out) const {
    for (std::size_t c = 0; c < fs.size(); ++c) out[c] = la::nrm2(fs[c]);
  }
  void nrm2(const Vec& x, double* out) const {
    dot(x, x, out);
    for (std::size_t c = 0; c < kW; ++c) out[c] = std::sqrt(out[c]);
  }
  /// la::dot per column: the same 1024-row reduction blocks, combined in
  /// block order.
  void dot(const Vec& x, const Vec& y, double* out) const {
    std::fill(out, out + kW, 0.0);
    for (std::size_t b = 0; b < rows; b += la::kReductionBlock) {
      double part[kW];
      la::simd::block_dot(x.data() + b * kW, y.data() + b * kW,
                          std::min(rows, b + la::kReductionBlock) - b, part);
      for (std::size_t c = 0; c < kW; ++c) out[c] += part[c];
    }
  }
  void multiply(const Vec& x, Vec& y) const {
    k.multiply_block(x.data(), y.data(), /*subtract=*/false);
  }
  void precondition(const Vec& r, Vec& z, int nlive) const {
    m.apply_block(r, z, nlive);
  }
  static void copy(const Vec& x, Vec& y) { y = x; }
  void step_update_max(const double* a, const Vec& p, double* out) const {
    la::simd::block_step_update_max(a, p.data(), u, rows, out);
  }
  void axpy(const double* a, const Vec& x, Vec& y) const {
    la::simd::block_axpy(a, x.data(), y.data(), rows);
  }
  void xpay(const Vec& x, const double* b, Vec& y) const {
    la::simd::block_xpay(x.data(), b, y.data(), rows);
  }
  static bool converged(double value, double bound) { return value < bound; }
  /// The final residual goes through the single-vector product, in the
  /// spent right-hand side, which still holds f: r = f - K u.
  void retire(std::size_t c, bool final_residual) {
    if (final_residual) {
      k.multiply_sub(res[c].solution, fs[c]);
      res[c].final_residual2 = la::nrm2(fs[c]);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      ws.r[i * kW + c] = 0.0;
      ws.p[i * kW + c] = 0.0;
    }
    u[c] = nullptr;
  }
};

}  // namespace

PcgResult pcg_solve(const la::LinearOperator& k, const Vec& f,
                    const Preconditioner& m, const PcgOptions& options,
                    KernelLog* log, const Vec& u0,
                    const par::Execution* exec, PcgWorkspace* workspace) {
  validate(k.rows(), f, m, options, u0);
  PcgWorkspace local;
  PcgWorkspace& ws = workspace ? *workspace : local;
  PcgResult res;
  VectorBackend b{k, f, m, exec ? *exec : par::serial_execution(), u0, ws,
                  res};
  detail::iterate(b, 1, options, log, &res);
  return res;
}

std::vector<PcgResult> pcg_solve_block(const la::DiaMatrix& k,
                                       util::Span<Vec> fs,
                                       const MulticolorMStepSsor& m,
                                       const PcgOptions& options,
                                       KernelLog* log,
                                       PcgWorkspace* workspace) {
  if (fs.size() == 0 || fs.size() > kW) {
    throw std::invalid_argument("pcg_solve_block: needs 1 to " +
                                std::to_string(kW) + " right-hand sides");
  }
  for (const Vec& f : fs) validate(k.rows(), f, m, options, {});
  PcgWorkspace local;
  PcgWorkspace& ws = workspace ? *workspace : local;
  std::vector<PcgResult> res(fs.size());
  BlockBackend b{k, fs, m, ws, res.data(),
                 static_cast<std::size_t>(k.rows())};
  detail::iterate(b, fs.size(), options, log, res.data());
  return res;
}

PcgResult pcg_solve(const la::CsrMatrix& k, const Vec& f,
                    const Preconditioner& m, const PcgOptions& options,
                    KernelLog* log, const Vec& u0,
                    const par::Execution* exec, PcgWorkspace* workspace) {
  return pcg_solve(la::CsrOperator(k), f, m, options, log, u0, exec,
                   workspace);
}

PcgResult cg_solve(const la::LinearOperator& k, const Vec& f,
                   const PcgOptions& options, KernelLog* log, const Vec& u0,
                   const par::Execution* exec) {
  const IdentityPreconditioner ident(k.rows());
  return pcg_solve(k, f, ident, options, log, u0, exec);
}

PcgResult cg_solve(const la::CsrMatrix& k, const Vec& f,
                   const PcgOptions& options, KernelLog* log, const Vec& u0,
                   const par::Execution* exec) {
  return cg_solve(la::CsrOperator(k), f, options, log, u0, exec);
}

}  // namespace mstep::core
