// Layer instrumentation that lives entirely in the benchmark: timing
// decorators handed to core::pcg_solve, the public prepare steps run one at
// a time, a ThreadPool fork-join probe, and serve codec timing.  Nothing
// here changes the library; a decorated solve runs the library's own
// pcg_solve on the library's own operator and preconditioner objects, so it
// must reproduce Prepared::solve bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/pcg.hpp"
#include "core/preconditioner.hpp"
#include "la/linear_operator.hpp"
#include "par/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_sweep.hpp"
#include "solver/solver.hpp"

namespace perfbench {

using mstep::index_t;
using mstep::Vec;

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] double now_s();

/// Accumulated wall time and call count of one decorated layer.
struct LayerTime {
  double seconds = 0.0;
  long long calls = 0;
};

/// Times every product of the wrapped operator.
class TimedOperator final : public mstep::la::LinearOperator {
 public:
  explicit TimedOperator(const mstep::la::LinearOperator& inner)
      : inner_(&inner) {}

  [[nodiscard]] index_t rows() const override { return inner_->rows(); }
  // The Execution-policy forms keep the base behaviour (the serial form,
  // so still timed): traced solves pass no policy, as Prepared::solve
  // does for every workload config.
  void multiply(const Vec& x, Vec& y) const override;
  void multiply_sub(const Vec& x, Vec& y) const override;
  [[nodiscard]] index_t num_nonzero_diagonals() const override {
    return inner_->num_nonzero_diagonals();
  }

  [[nodiscard]] const LayerTime& time() const { return time_; }

 private:
  const mstep::la::LinearOperator* inner_;
  mutable LayerTime time_;
};

/// Times every application of the wrapped preconditioner.
class TimedPreconditioner final : public mstep::core::Preconditioner {
 public:
  explicit TimedPreconditioner(const mstep::core::Preconditioner& inner)
      : inner_(&inner) {}

  [[nodiscard]] index_t size() const override { return inner_->size(); }
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] int steps() const override { return inner_->steps(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const LayerTime& time() const { return time_; }

 private:
  const mstep::core::Preconditioner* inner_;
  mutable LayerTime time_;
};

/// Same bits (memcmp): -0.0 differs from 0.0, as it would in a file.
[[nodiscard]] bool bitwise_equal(const Vec& a, const Vec& b);

/// What every later solve of one right-hand side must reproduce.
struct Reference {
  int iterations = 0;
  bool converged = false;
  Vec solution;
};
[[nodiscard]] Reference reference_of(const mstep::solver::SolveReport& r);
/// Converged, and the iteration count and solution bits equal `ref`'s.
[[nodiscard]] bool matches(const Reference& ref, int iterations,
                           bool converged, const Vec& solution);

/// The multicolour SSOR pipeline of Solver::prepare, rebuilt from the
/// public prepare steps one at a time so each step's wall is measured.
struct Pipeline {
  std::unique_ptr<mstep::color::ColoredSystem> cs;
  std::vector<double> alphas;
  std::unique_ptr<mstep::core::Preconditioner> precond;  // serial sweep
  mstep::solver::MatrixFormat format = mstep::solver::MatrixFormat::kCsr;
  std::unique_ptr<mstep::la::DiaMatrix> dia;
  std::unique_ptr<mstep::la::SellMatrix> sell;
  std::unique_ptr<mstep::la::LinearOperator> op;

  double greedy_s = 0.0;  // greedy colouring; 0 when classes were given
  double colored_system_s = 0.0;
  double params_s = 0.0;
  double precond_build_s = 0.0;
  double format_probe_s = 0.0;

  /// Computed bytes of one y = A x and of one preconditioner apply.
  double spmv_bytes = 0.0;
  double sweep_bytes = 0.0;
  double working_set_bytes = 0.0;  // of one solve, see working_set_bytes()
};

/// Computed bytes a solve keeps live on `permuted` (the colour-permuted
/// matrix PCG iterates on) in `format`: the caller's and the permuted
/// matrix, the operator copy, the sweep's off-diagonal segments, and nine
/// n-vectors.  Each of `lanes` concurrent batch lanes adds its own sweep
/// segments and vectors.
[[nodiscard]] double working_set_bytes(const mstep::la::CsrMatrix& caller,
                                       const mstep::la::CsrMatrix& permuted,
                                       mstep::solver::MatrixFormat format,
                                       int lanes);

/// `classes` empty means greedy colouring, as Solver::prepare does.
/// Requires a multicolour SSOR(omega = 1) config (the Algorithm-2 path).
[[nodiscard]] Pipeline build_pipeline(
    const mstep::la::CsrMatrix& k, const mstep::color::ColorClasses& classes,
    const mstep::solver::SolverConfig& config);

/// The region-sharded backend on a Pipeline's system, built from the
/// public shard constructors on a caller-owned pool.
struct ShardedPipeline {
  std::unique_ptr<mstep::shard::ShardPlan> plan;
  std::unique_ptr<mstep::la::LinearOperator> op;
  std::unique_ptr<mstep::shard::ShardedMulticolorMStepSsor> precond;
  long long ghost_rows = 0;  // sum of HaloPlan::ghost_count over shards
};
[[nodiscard]] ShardedPipeline build_sharded(const Pipeline& serial,
                                            int shards,
                                            mstep::par::ThreadPool& pool);

/// One PCG solve through the timing decorators, with the options and
/// ordering Prepared::solve uses.
struct TracedSolve {
  mstep::core::PcgResult result;
  Vec solution;  // caller ordering
  double wall_s = 0.0;
  LayerTime spmv;
  LayerTime sweep;
};
[[nodiscard]] TracedSolve traced_solve(
    const mstep::la::LinearOperator& op,
    const mstep::core::Preconditioner& precond,
    const mstep::solver::Prepared& prepared, const Vec& f);

/// Median wall of a ThreadPool::for_range over one chunk per thread of a
/// fresh `threads`-wide pool, each chunk busy-waiting `body_us`, minus
/// `body_us`: the fork-join cost a parallel phase pays.  The body is one
/// std::function that outlives the pool.
[[nodiscard]] double fork_join_overhead_us(int threads, int calls,
                                           double body_us);

/// Median per-call microseconds of the four serve codecs over real
/// payloads, and the median encoded sizes.
struct CodecTimes {
  double request_encode_us = 0.0;
  double request_decode_us = 0.0;
  double response_encode_us = 0.0;
  double response_decode_us = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
};
[[nodiscard]] CodecTimes time_codecs(
    const std::vector<mstep::serve::SolveRequest>& requests,
    const std::vector<mstep::serve::SolveResponse>& responses);

}  // namespace perfbench
