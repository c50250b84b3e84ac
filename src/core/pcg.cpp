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

void validate(const la::LinearOperator& k, const Vec& f,
              const Preconditioner& m, const PcgOptions& options,
              const Vec& u0) {
  const index_t n = k.rows();
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

/// The scalar half of Algorithm 1 for one right-hand side: rho, alpha and
/// beta, the counters, the stopping test and the history.  pcg_solve and
/// every column of pcg_solve_block drive it between their vector kernels,
/// so the two loops cannot drift apart.
class PcgScalars {
 public:
  PcgScalars(const PcgOptions& options, double f_norm, PcgResult& res)
      : options_(&options), f_norm_(f_norm), res_(&res) {}

  /// z0 = M r0 was applied; rho0 = (z0, r0).
  void start(double rho) {
    ++res_->precond_applications;
    ++res_->inner_products;
    rho_ = rho;
    // History timing marks between consecutive convergence checks: each
    // record's `seconds` covers one full trip around the loop, so the
    // column sums to the loop's wall-clock.  The clock is only read when
    // history is requested.
    if (options_->record_history) mark_ = Clock::now();
  }

  /// pw = (p, K p).  False on a breakdown — loss of positive
  /// definiteness, which should not happen for SPD M, K — which ends the
  /// solve unconverged.
  bool curvature(double pw) {
    ++res_->inner_products;
    if (pw <= 0.0) {
      res_->converged = false;
      return false;
    }
    alpha_ = rho_ / pw;
    return true;
  }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// u += alpha p and r -= alpha w are done: `delta_inf` = |alpha p|_inf,
  /// `rn` = ||r||_2 (read by the residual rule only).  True when the solve
  /// has converged.
  bool converged(int it, double delta_inf, double rn) {
    res_->iterations = it + 1;
    res_->final_delta_inf = delta_inf;
    double value = delta_inf;
    bool stop = false;
    if (options_->stop_rule == StopRule::kDeltaInf) {
      stop = delta_inf < options_->tolerance;
    } else {
      res_->final_residual2 = rn;
      value = rn;
      stop = rn < options_->tolerance * (f_norm_ > 0 ? f_norm_ : 1.0);
    }
    if (options_->record_history) {
      const Clock::time_point now = Clock::now();
      res_->history.push_back(IterationRecord{
          value, alpha_, std::chrono::duration<double>(now - mark_).count()});
      mark_ = now;
    }
    if (stop) res_->converged = true;
    return stop;
  }

  /// z = M r was applied; rho_new = (z, r).  Returns beta.
  double beta(double rho_new) {
    ++res_->precond_applications;
    ++res_->inner_products;
    const double beta = rho_new / rho_;
    rho_ = rho_new;
    return beta;
  }

 private:
  using Clock = std::chrono::steady_clock;
  const PcgOptions* options_;
  double f_norm_;
  PcgResult* res_;
  double rho_ = 0.0;
  double alpha_ = 0.0;
  Clock::time_point mark_;
};

}  // namespace

PcgResult pcg_solve(const la::LinearOperator& k, const Vec& f,
                    const Preconditioner& m, const PcgOptions& options,
                    KernelLog* log, const Vec& u0,
                    const par::Execution* exec, PcgWorkspace* workspace) {
  const par::Execution& ex = exec ? *exec : par::serial_execution();
  validate(k, f, m, options, u0);
  const index_t n = k.rows();
  const int ndiags =
      log ? static_cast<int>(k.num_nonzero_diagonals()) : 0;

  // One span per solve; the per-iteration and per-sweep spans nest
  // inside it on whichever thread runs this solve (a batch lane's track
  // in a multi-RHS trace).
  const obs::Span solve_span("solve");

  PcgResult res;
  // All solve-sized scratch comes from the workspace when one is supplied
  // (reused, no allocation on a warm arena) or from a local one.
  PcgWorkspace local;
  PcgWorkspace& ws = workspace ? *workspace : local;

  Vec& u = ws.u;
  if (u0.empty()) {
    u.assign(n, 0.0);
  } else {
    u = u0;
  }

  // r0 = f - K u0
  Vec& r = ws.r;
  k.residual(f, u, r);
  if (log) {
    log->spmv_diagonals(n, ndiags);
    log->vec_op(n, 1);
  }

  // Already at the solution (e.g. zero right-hand side with a zero guess):
  // report convergence without entering the loop, where the zero curvature
  // p^T K p would otherwise read as a breakdown.
  if (ex.nrm2(r) == 0.0) {
    res.converged = true;
    res.solution = std::move(u);
    return res;
  }

  PcgScalars scalars(options, ex.nrm2(f), res);
  // z0 = M^{-1} r0 ; p0 = z0
  Vec& z = ws.z;
  m.apply(r, z);
  Vec& p = ws.p;
  p = z;
  if (log) log->vec_op(n, 1);
  scalars.start(ex.dot(z, r));
  if (log) log->dot_op(n);

  Vec& w = ws.w;
  w.resize(n);
  for (int it = 0; it < options.max_iterations; ++it) {
    const obs::Span iteration_span("iteration");
    // w = K p ; alpha = rho / (p, w)
    k.multiply(p, w);
    const double pw = ex.dot(p, w);
    if (log) {
      log->spmv_diagonals(n, ndiags);
      log->dot_op(n);
    }
    if (!scalars.curvature(pw)) break;
    const double alpha = scalars.alpha();

    // u^{k+1} = u^k + alpha p ; stopping quantity before overwriting.
    const double delta_inf = ex.step_update_max(alpha, p, u);
    if (log) {
      log->vec_op(n, 1);
      log->max_op(n);
    }

    // r^{k+1} = r^k - alpha w
    ex.axpy(-alpha, w, r);
    if (log) log->vec_op(n, 1);

    const double rn =
        options.stop_rule == StopRule::kResidual2 ? ex.nrm2(r) : 0.0;
    const bool stop = scalars.converged(it, delta_inf, rn);
    if (log) log->end_iteration();
    if (stop) break;

    // z = M^{-1} r ; beta = rho_new / rho ; p = z + beta p
    m.apply(r, z);
    const double beta = scalars.beta(ex.dot(z, r));
    if (log) log->dot_op(n);
    ex.xpay(z, beta, p);
    if (log) log->vec_op(n, 1);
  }

  res.final_residual2 = [&] {
    // w is dead scratch after the loop: reuse it for the final residual.
    k.residual(f, u, w);
    return ex.nrm2(w);
  }();
  // Moving out of the workspace leaves ws.u empty; the next solve's
  // assign() re-grows it, which is the same single output allocation the
  // returned solution costs anyway.
  res.solution = std::move(u);
  return res;
}

namespace {

constexpr std::size_t kW = la::simd::kSellSlice;

/// la::dot per column of two blocks: the same 1024-row reduction blocks,
/// combined in block order.
void block_dot(const Vec& x, const Vec& y, double* out) {
  const std::size_t rows = x.size() / kW;
  std::fill(out, out + kW, 0.0);
  for (std::size_t b = 0; b < rows; b += la::kReductionBlock) {
    double part[kW];
    la::simd::block_dot(x.data() + b * kW, y.data() + b * kW,
                        std::min(rows, b + la::kReductionBlock) - b, part);
    for (std::size_t c = 0; c < kW; ++c) out[c] += part[c];
  }
}

}  // namespace

std::vector<PcgResult> pcg_solve_block(const la::LinearOperator& k,
                                       util::Span<Vec> fs,
                                       const MulticolorMStepSsor& m,
                                       const PcgOptions& options,
                                       KernelLog* log,
                                       PcgBlockWorkspace* workspace) {
  const std::size_t cols = fs.size();
  if (cols == 0 || cols > kW) {
    throw std::invalid_argument("pcg_solve_block: needs 1 to " +
                                std::to_string(kW) + " right-hand sides");
  }
  for (const Vec& f : fs) validate(k, f, m, options, {});
  const index_t n = k.rows();
  const auto rows = static_cast<std::size_t>(n);
  const int ndiags =
      log ? static_cast<int>(k.num_nonzero_diagonals()) : 0;
  const obs::Span solve_span("solve");

  // Column c's iterate is results[c].solution itself; u[c] goes null when
  // the column stops, which freezes it.
  std::vector<PcgResult> res(cols);
  std::vector<PcgScalars> scalars;
  scalars.reserve(cols);
  double* u[kW] = {};
  int nlive = 0;
  // The kernel stream of every live column.
  const auto narrate = [&](auto&& emit) {
    if (!log) return;
    for (int c = 0; c < nlive; ++c) emit();
  };

  PcgBlockWorkspace local;
  PcgBlockWorkspace& ws = workspace ? *workspace : local;
  Vec& r = ws.r;
  Vec& p = ws.p;
  Vec& zw = ws.zw;
  r.resize(rows * kW);
  p.resize(rows * kW);

  // Stops column c: its solution stays as it is, its final residual goes
  // through the single-vector operator (in the spent right-hand side),
  // and its r and p become exact zeros, which every kernel keeps zero.
  const auto retire = [&](std::size_t c, bool final_residual) {
    if (final_residual) {
      k.residual(fs[c], res[c].solution, fs[c]);
      res[c].final_residual2 = la::nrm2(fs[c]);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      r[i * kW + c] = 0.0;
      p[i * kW + c] = 0.0;
    }
    u[c] = nullptr;
    --nlive;
  };

  // r0 = f - K u0 with u0 = 0, in residual()'s order: r = f, then
  // r -= K u.  The columns past `cols` stay zero throughout.
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < kW; ++c) {
      r[i * kW + c] = c < cols ? fs[c][i] : 0.0;
    }
  }
  std::fill(p.begin(), p.end(), 0.0);  // u0 as a block
  k.multiply_block(p.data(), r.data(), /*subtract=*/true);
  for (std::size_t c = 0; c < cols; ++c) {
    res[c].solution.assign(rows, 0.0);
    u[c] = res[c].solution.data();
    scalars.emplace_back(options, la::nrm2(fs[c]), res[c]);
  }
  nlive = static_cast<int>(cols);
  narrate([&] {
    log->spmv_diagonals(n, ndiags);
    log->vec_op(n, 1);
  });
  double rr[kW];
  block_dot(r, r, rr);
  for (std::size_t c = 0; c < cols; ++c) {
    if (std::sqrt(rr[c]) == 0.0) {  // already at the solution
      res[c].converged = true;
      retire(c, /*final_residual=*/false);
    }
  }
  if (nlive == 0) return res;

  // z0 = M^{-1} r0 ; p0 = z0
  m.apply_block(r, zw, nlive);
  p = zw;
  narrate([&] { log->vec_op(n, 1); });
  double rho[kW];
  block_dot(zw, r, rho);
  for (std::size_t c = 0; c < cols; ++c) {
    if (u[c] != nullptr) scalars[c].start(rho[c]);
  }
  narrate([&] { log->dot_op(n); });

  for (int it = 0; it < options.max_iterations && nlive > 0; ++it) {
    const obs::Span iteration_span("iteration");
    // w = K p ; alpha = rho / (p, w)
    k.multiply_block(p.data(), zw.data(), /*subtract=*/false);
    double pw[kW];
    block_dot(p, zw, pw);
    narrate([&] {
      log->spmv_diagonals(n, ndiags);
      log->dot_op(n);
    });
    double alpha[kW] = {};
    for (std::size_t c = 0; c < cols; ++c) {
      if (u[c] == nullptr) continue;
      if (scalars[c].curvature(pw[c])) {
        alpha[c] = scalars[c].alpha();
      } else {
        retire(c, /*final_residual=*/true);
      }
    }

    // u^{k+1} = u^k + alpha p ; r^{k+1} = r^k - alpha w
    double delta_inf[kW];
    la::simd::block_step_update_max(alpha, p.data(), u, rows, delta_inf);
    double neg_alpha[kW];
    for (std::size_t c = 0; c < kW; ++c) neg_alpha[c] = -alpha[c];
    la::simd::block_axpy(neg_alpha, zw.data(), r.data(), rows);
    narrate([&] {
      log->vec_op(n, 1);
      log->max_op(n);
      log->vec_op(n, 1);
    });

    double rn[kW] = {};
    if (options.stop_rule == StopRule::kResidual2) {
      block_dot(r, r, rn);
      for (double& v : rn) v = std::sqrt(v);
    }
    narrate([&] { log->end_iteration(); });
    for (std::size_t c = 0; c < cols; ++c) {
      if (u[c] != nullptr && scalars[c].converged(it, delta_inf[c], rn[c])) {
        retire(c, /*final_residual=*/true);
      }
    }
    if (nlive == 0) break;

    // z = M^{-1} r ; beta = rho_new / rho ; p = z + beta p
    m.apply_block(r, zw, nlive);
    double rho_new[kW];
    block_dot(zw, r, rho_new);
    double beta[kW] = {};
    for (std::size_t c = 0; c < cols; ++c) {
      if (u[c] != nullptr) beta[c] = scalars[c].beta(rho_new[c]);
    }
    narrate([&] { log->dot_op(n); });
    la::simd::block_xpay(zw.data(), beta, p.data(), rows);
    narrate([&] { log->vec_op(n, 1); });
  }
  // The iteration limit: every column still live stops unconverged.
  for (std::size_t c = 0; c < cols; ++c) {
    if (u[c] != nullptr) retire(c, /*final_residual=*/true);
  }
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
