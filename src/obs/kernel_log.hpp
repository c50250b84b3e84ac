// TracingKernelLog — one instrumentation pass for two consumers.
//
// The solvers already narrate every vector kernel through
// core::KernelLog (the Section-4 operation census behind
// T_m = N_m(A + mB)).  This adapter forwards that same stream to an
// optional inner log AND bumps the tracer's profiling counters, so the
// analytical census and the wall-clock trace come from one pass
// instead of two parallel mechanisms.  When tracing is off the bumps
// are relaxed-load no-ops; the inner log still sees everything.
#pragma once

#include "core/kernel_log.hpp"
#include "obs/trace.hpp"

namespace mstep::obs {

class TracingKernelLog : public core::KernelLog {
 public:
  /// Forwards to `inner` when non-null; either way feeds the tracer.
  explicit TracingKernelLog(core::KernelLog* inner = nullptr)
      : inner_(inner) {}

  void vec_op(index_t n, int count) override {
    if (inner_) inner_->vec_op(n, count);
    count_ops(Counter::kVecOps, count, static_cast<long long>(n) * count);
  }
  void dot_op(index_t n) override {
    if (inner_) inner_->dot_op(n);
    count_ops(Counter::kDots, 1, 2LL * n);
  }
  void max_op(index_t n) override {
    if (inner_) inner_->max_op(n);
    count_ops(Counter::kVecOps, 1, n);
  }
  void diag_op(index_t n) override {
    if (inner_) inner_->diag_op(n);
    count_ops(Counter::kVecOps, 1, n);
  }
  void spmv_diagonals(index_t len, int ndiags) override {
    if (inner_) inner_->spmv_diagonals(len, ndiags);
    count_ops(Counter::kSpmvs, 1, 2LL * len * ndiags);
  }
  void end_iteration() override {
    if (inner_) inner_->end_iteration();
  }
  void end_precond_step() override {
    if (inner_) inner_->end_precond_step();
    count(Counter::kSweeps, 1);
  }

 private:
  static void count_ops(Counter kind, long long ops, long long flops) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    t.add(kind, ops);
    t.add(Counter::kFlops, flops);
  }

  core::KernelLog* inner_;
};

}  // namespace mstep::obs
