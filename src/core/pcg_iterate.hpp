// Algorithm 1's iteration body, written once over a backend.  pcg.cpp
// instantiates it on one vector and on a row-interleaved block of
// right-hand sides; femsim/dist_solver.cpp on each simulated processor of
// the Finite Element Machine.  Only those callers include this header.
#pragma once

#include <chrono>
#include <cstddef>

#include "core/pcg.hpp"
#include "la/simd.hpp"
#include "obs/trace.hpp"

namespace mstep::core::detail {

constexpr std::size_t kW = la::simd::kSellSlice;

/// Algorithm 1 for `cols` (1 to kW) right-hand sides.  The backend holds
/// the matrix `k` and the workspace `ws`, counts K's diagonals for the
/// kernel stream, and supplies the vector half on them: r0 = f - K u0
/// (residual0) and its norm, ||f||, the preconditioner, the p0 = z0 copy,
/// the products, the reductions into per-column arrays, the updates with
/// per-column scalars, the stopping decision, and retire(c,
/// final_residual), which stops column c.  This body owns the rest: each
/// column's rho, alpha and beta, its counters, stopping test and history,
/// and the kernel stream it narrates to `log` once per live column.
/// Every backend replays the same operation sequence, so a block column
/// is bitwise the single-vector solve of its right-hand side, and so is
/// one processor of the Finite Element Machine.
template <class Backend>
void iterate(Backend& b, std::size_t cols, const PcgOptions& options,
             KernelLog* log, PcgResult* res) {
  using Clock = std::chrono::steady_clock;
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
  b.residual0_nrm2(rn);
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
  b.copy(ws.zw, ws.p);
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
      if (b.converged(value, bound)) {
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

}  // namespace mstep::core::detail
