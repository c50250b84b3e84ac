#include "core/pcg.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/multicolor_mstep.hpp"
#include "la/simd.hpp"
#include "obs/trace.hpp"
#include "par/execution.hpp"

namespace mstep::core {

namespace {

using Clock = std::chrono::steady_clock;
constexpr std::size_t kW = la::simd::kSellSlice;

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

/// Algorithm 1 for `cols` (1 to kW) right-hand sides, written once.  The
/// backend holds the matrix `k` and the workspace `ws`, counts K's
/// diagonals for the kernel stream, and supplies the vector half on them:
/// r0 = f - K u0 (residual0), the preconditioner, the products, the
/// reductions into per-column arrays, the updates with per-column scalars,
/// and retire(c, final_residual), which stops column c.  This body owns
/// the rest: each column's rho, alpha and beta, its counters, stopping
/// test and history, and the kernel stream it narrates to `log` once per
/// live column.  Both backends replay the same operation sequence, so a
/// block column is bitwise the single-vector solve of its right-hand side.
template <class Backend>
void iterate(Backend& b, std::size_t cols, const PcgOptions& options,
             KernelLog* log, PcgResult* res) {
  PcgWorkspace& ws = b.ws;
  const index_t n = b.k.rows();
  const int ndiags = log ? static_cast<int>(b.diagonals()) : 0;
  // One span per solve; the per-iteration and per-sweep spans nest
  // inside it on whichever thread runs this solve (a batch lane's track
  // in a multi-RHS trace).
  const obs::Span solve_span("solve");

  bool live[kW] = {};
  int nlive = static_cast<int>(cols);
  const auto narrate = [&](auto&& emit) {
    if (!log) return;
    for (int c = 0; c < nlive; ++c) emit();
  };
  const auto retire = [&](std::size_t c, bool final_residual) {
    live[c] = false;
    --nlive;
    b.retire(c, final_residual);
  };

  b.residual0();
  narrate([&] {
    log->spmv_diagonals(n, ndiags);
    log->vec_op(n, 1);
  });
  // Already at the solution (e.g. zero right-hand side with a zero guess):
  // converged without entering the loop, where the zero curvature p^T K p
  // would otherwise read as a breakdown.
  double rn[kW] = {};
  b.nrm2(ws.r, rn);
  for (std::size_t c = 0; c < cols; ++c) {
    live[c] = true;
    if (rn[c] == 0.0) {
      res[c].converged = true;
      retire(c, /*final_residual=*/false);
    }
  }
  if (nlive == 0) return;
  double f_norm[kW] = {};
  b.rhs_nrm2(f_norm);

  // z0 = M^{-1} r0 ; p0 = z0 ; rho0 = (z0, r0)
  b.precondition(ws.r, ws.zw, nlive);
  ws.p = ws.zw;
  narrate([&] { log->vec_op(n, 1); });
  double rho[kW] = {};
  b.dot(ws.zw, ws.r, rho);
  for (std::size_t c = 0; c < cols; ++c) {
    if (!live[c]) continue;
    ++res[c].precond_applications;
    ++res[c].inner_products;
  }
  narrate([&] { log->dot_op(n); });

  // History timing marks between consecutive convergence checks: each
  // record's `seconds` covers one full trip around the loop, so the column
  // sums to the loop's wall-clock.  The clock is only read when history is
  // requested.
  Clock::time_point mark;
  if (options.record_history) mark = Clock::now();
  for (int it = 0; it < options.max_iterations && nlive > 0; ++it) {
    const obs::Span iteration_span("iteration");
    // w = K p ; alpha = rho / (p, w).  pw <= 0 is a breakdown — loss of
    // positive definiteness, which should not happen for SPD M, K — and
    // stops the column unconverged.
    b.multiply(ws.p, ws.zw);
    double pw[kW] = {};
    b.dot(ws.p, ws.zw, pw);
    narrate([&] {
      log->spmv_diagonals(n, ndiags);
      log->dot_op(n);
    });
    double alpha[kW] = {};
    for (std::size_t c = 0; c < cols; ++c) {
      if (!live[c]) continue;
      ++res[c].inner_products;
      if (pw[c] <= 0.0) {
        retire(c, /*final_residual=*/true);
      } else {
        alpha[c] = rho[c] / pw[c];
      }
    }
    if (nlive == 0) break;

    // u^{k+1} = u^k + alpha p with delta_inf = |alpha p|_inf ;
    // r^{k+1} = r^k - alpha w
    double delta_inf[kW] = {};
    b.step_update_max(alpha, ws.p, delta_inf);
    double neg_alpha[kW] = {};
    for (std::size_t c = 0; c < kW; ++c) neg_alpha[c] = -alpha[c];
    b.axpy(neg_alpha, ws.zw, ws.r);
    narrate([&] {
      log->vec_op(n, 1);
      log->max_op(n);
      log->vec_op(n, 1);
    });

    const bool residual_rule = options.stop_rule == StopRule::kResidual2;
    if (residual_rule) b.nrm2(ws.r, rn);
    narrate([&] { log->end_iteration(); });
    const Clock::time_point now =
        options.record_history ? Clock::now() : mark;
    for (std::size_t c = 0; c < cols; ++c) {
      if (!live[c]) continue;
      PcgResult& rc = res[c];
      rc.iterations = it + 1;
      rc.final_delta_inf = delta_inf[c];
      if (residual_rule) rc.final_residual2 = rn[c];
      const double value = residual_rule ? rn[c] : delta_inf[c];
      const double bound =
          residual_rule
              ? options.tolerance * (f_norm[c] > 0 ? f_norm[c] : 1.0)
              : options.tolerance;
      if (options.record_history) {
        rc.history.push_back(
            IterationRecord{value, alpha[c],
                            std::chrono::duration<double>(now - mark).count()});
      }
      if (value < bound) {
        rc.converged = true;
        retire(c, /*final_residual=*/true);
      }
    }
    mark = now;
    if (nlive == 0) break;

    // z = M^{-1} r ; beta = rho_new / rho ; p = z + beta p
    b.precondition(ws.r, ws.zw, nlive);
    double rho_new[kW] = {};
    b.dot(ws.zw, ws.r, rho_new);
    double beta[kW] = {};
    for (std::size_t c = 0; c < cols; ++c) {
      if (!live[c]) continue;
      ++res[c].precond_applications;
      ++res[c].inner_products;
      beta[c] = rho_new[c] / rho[c];
      rho[c] = rho_new[c];
    }
    narrate([&] { log->dot_op(n); });
    b.xpay(ws.zw, beta, ws.p);
    narrate([&] { log->vec_op(n, 1); });
  }
  // The iteration limit: every column still live stops unconverged.
  for (std::size_t c = 0; c < cols; ++c) {
    if (live[c]) retire(c, /*final_residual=*/true);
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
  void rhs_nrm2(double* out) const { out[0] = ex.nrm2(f); }
  void nrm2(const Vec& x, double* out) const { out[0] = ex.nrm2(x); }
  void dot(const Vec& x, const Vec& y, double* out) const {
    out[0] = ex.dot(x, y);
  }
  void multiply(const Vec& x, Vec& y) const { k.multiply(x, y); }
  void precondition(const Vec& r, Vec& z, int /*nlive*/) const {
    m.apply(r, z);
  }
  void step_update_max(const double* a, const Vec& p, double* out) const {
    out[0] = ex.step_update_max(a[0], p, res.solution);
  }
  void axpy(const double* a, const Vec& x, Vec& y) const {
    ex.axpy(a[0], x, y);
  }
  void xpay(const Vec& x, const double* b, Vec& y) const {
    ex.xpay(x, b[0], y);
  }
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
  void step_update_max(const double* a, const Vec& p, double* out) const {
    la::simd::block_step_update_max(a, p.data(), u, rows, out);
  }
  void axpy(const double* a, const Vec& x, Vec& y) const {
    la::simd::block_axpy(a, x.data(), y.data(), rows);
  }
  void xpay(const Vec& x, const double* b, Vec& y) const {
    la::simd::block_xpay(x.data(), b, y.data(), rows);
  }
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
  iterate(b, 1, options, log, &res);
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
  iterate(b, fs.size(), options, log, res.data());
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
