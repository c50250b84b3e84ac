#include "core/pcg.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "par/execution.hpp"

namespace mstep::core {

PcgResult pcg_solve(const la::LinearOperator& k, const Vec& f,
                    const Preconditioner& m, const PcgOptions& options,
                    KernelLog* log, const Vec& u0,
                    const par::Execution* exec, PcgWorkspace* workspace) {
  const par::Execution& ex = exec ? *exec : par::serial_execution();
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

  // z0 = M^{-1} r0 ; p0 = z0
  Vec& z = ws.z;
  m.apply(r, z);
  res.precond_applications++;
  Vec& p = ws.p;
  p = z;
  if (log) log->vec_op(n, 1);

  double rho = ex.dot(z, r);
  if (log) log->dot_op(n);
  res.inner_products++;

  Vec& w = ws.w;
  w.resize(n);
  const double f_norm = ex.nrm2(f);

  // History timing marks between consecutive convergence checks: each
  // record's `seconds` covers one full trip around the loop, so the
  // column sums to the loop's wall-clock.  The clock is only read when
  // history is requested.
  using HistClock = std::chrono::steady_clock;
  HistClock::time_point hist_mark;
  if (options.record_history) hist_mark = HistClock::now();

  for (int it = 0; it < options.max_iterations; ++it) {
    const obs::Span iteration_span("iteration");
    // w = K p ; alpha = rho / (p, w)
    k.multiply(p, w);
    const double pw = ex.dot(p, w);
    if (log) {
      log->spmv_diagonals(n, ndiags);
      log->dot_op(n);
    }
    res.inner_products++;
    if (pw <= 0.0) {
      // Loss of positive definiteness (should not happen for SPD M, K).
      res.converged = false;
      break;
    }
    const double alpha = rho / pw;

    // u^{k+1} = u^k + alpha p ; stopping quantity before overwriting.
    const double delta_inf = ex.step_update_max(alpha, p, u);
    if (log) {
      log->vec_op(n, 1);
      log->max_op(n);
    }

    // r^{k+1} = r^k - alpha w
    ex.axpy(-alpha, w, r);
    if (log) log->vec_op(n, 1);

    res.iterations = it + 1;
    res.final_delta_inf = delta_inf;

    const auto push_history = [&](double value) {
      const HistClock::time_point now = HistClock::now();
      res.history.push_back(IterationRecord{
          value, alpha,
          std::chrono::duration<double>(now - hist_mark).count()});
      hist_mark = now;
    };
    bool stop = false;
    if (options.stop_rule == StopRule::kDeltaInf) {
      if (options.record_history) push_history(delta_inf);
      stop = delta_inf < options.tolerance;
    } else {
      const double rn = ex.nrm2(r);
      res.final_residual2 = rn;
      if (options.record_history) push_history(rn);
      stop = rn < options.tolerance * (f_norm > 0 ? f_norm : 1.0);
    }
    if (log) log->end_iteration();
    if (stop) {
      res.converged = true;
      break;
    }

    // z = M^{-1} r ; beta = rho_new / rho ; p = z + beta p
    m.apply(r, z);
    res.precond_applications++;
    const double rho_new = ex.dot(z, r);
    if (log) log->dot_op(n);
    res.inner_products++;
    const double beta = rho_new / rho;
    rho = rho_new;
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
