// The batched multi-RHS solve engine behind Prepared::solveMany.
//
// One expensive setup — coloring, permutation, splitting parameters, alpha
// coefficients — serves many right-hand sides (the reuse the paper's whole
// m-step design is built around); the engine schedules the independent PCG
// solves concurrently on the solver's shared thread pool.  Scheduling is a
// work-stealing round-robin: each worker lane pops the next unsolved RHS
// index off one atomic cursor, so a slow right-hand side (more iterations)
// never stalls the rest of the batch behind a static partition.
//
// Each lane owns a scratch arena — its own preconditioner instance plus a
// PcgWorkspace and reorder buffers — built once before the loop, so
// nothing allocates inside the batch loop beyond each report's solution
// vector.  One lane rule: a single lane runs Prepared::solve's path, on
// the strip partition if there is one; two or more lanes run inside one
// pool job, which may not dispatch, so they run the serial kernels (on the
// Algorithm-2 path over one shared one-strip sweep plan).  Either way every
// per-RHS result is BITWISE identical to the serial Prepared::solve.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "obs/kernel_log.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "util/timer.hpp"

namespace mstep::solver {

namespace {

/// Per-lane scratch arena: everything one concurrent PCG solve mutates.
struct Lane {
  detail::PrecondChoice engine;  // preconditioner (+ its splitting)
  core::PcgWorkspace workspace;
  Vec fp;  // permuted right-hand side (reused across this lane's RHSs)
  /// Feeds the tracer's kernel census (flops/bytes counters) when tracing
  /// is enabled at batch time; null otherwise, so the untraced hot path
  /// keeps its no-log pcg_solve calls.
  std::unique_ptr<obs::TracingKernelLog> trace_log;
};

}  // namespace

std::size_t BatchReport::num_failed() const {
  std::size_t failed = 0;
  for (const auto& e : errors) {
    if (e) ++failed;
  }
  return failed;
}

bool BatchReport::all_converged() const {
  if (reports.empty()) return true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (errors[i] || !reports[i].converged()) return false;
  }
  return true;
}

long long BatchReport::total_iterations() const {
  long long total = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!errors[i]) total += reports[i].iterations();
  }
  return total;
}

double BatchReport::solves_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(reports.size() - num_failed()) / wall_seconds;
}

void BatchReport::rethrow_first_error() const {
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

BatchReport Prepared::solveMany(util::Span<const Vec> bs,
                                const BatchConfig& batch) const {
  util::Timer timer;
  if (batch.concurrency < 0) {
    throw std::invalid_argument("solveMany: concurrency must be >= 0");
  }
  BatchReport br;
  br.reports.resize(bs.size());
  br.errors.resize(bs.size());
  const auto nrhs = static_cast<index_t>(bs.size());
  if (nrhs == 0) return br;

  // Lane count: the per-call override, else the config default — both
  // honored as asked (deliberate oversubscription stays possible) — else
  // one lane per pool thread capped at the hardware width: lanes beyond
  // the physical cores only add timesharing and arena memory, never
  // throughput.  Never more lanes than the pool can run at once or than
  // there are right-hand sides.
  par::ThreadPool* pool = exec_ ? exec_->pool() : nullptr;
  const int pool_width = pool ? pool->threads() : 1;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int auto_want = hw > 0 ? std::min(pool_width, hw) : pool_width;
  const int want = batch.concurrency > 0
                       ? batch.concurrency
                       : (config_.batch > 0 ? config_.batch : auto_want);
  const int lanes = std::max(
      1, std::min({want, pool_width, static_cast<int>(nrhs)}));
  // A single lane runs on the calling thread and leaves the pool free for
  // the strip partition, exactly as solve() does.
  const bool partitioned = strips_ && lanes == 1;
  const par::Execution* exec = partitioned ? exec_.get() : nullptr;
  const shard::ShardPlan* strips = partitioned ? strips_.get() : nullptr;

  // Build one scratch arena per lane; the expensive setup — coloring,
  // interval, alphas — is shared read-only.  On the Algorithm-2 path the
  // lanes share one sweep plan too: this pipeline's own if it has one
  // strip or the single lane runs partitioned, else a one-strip plan built
  // once for this call.  Other paths go through prepare()'s selection
  // policy.  A lane's KernelLog is non-null only when tracing is on as the
  // batch starts, so untraced batches keep the log-free code paths.
  const auto* sweep =
      dynamic_cast<const core::MulticolorMStepSsor*>(precond_.get());
  std::shared_ptr<const core::MulticolorSweepPlan> sweep_plan;
  if (sweep) {
    sweep_plan = partitioned || sweep->plan()->num_strips() == 1
                     ? sweep->plan()
                     : std::make_shared<const core::MulticolorSweepPlan>(
                           *cs_, alphas_);
  }
  const bool tracing = obs::Tracer::instance().enabled();
  std::vector<Lane> arena(static_cast<std::size_t>(lanes));
  for (Lane& lane : arena) {
    if (tracing) lane.trace_log = std::make_unique<obs::TracingKernelLog>();
    if (sweep_plan) {
      lane.engine.precond = std::make_unique<core::MulticolorMStepSsor>(
          sweep_plan, partitioned ? pool : nullptr, lane.trace_log.get());
    } else {
      lane.engine = detail::make_preconditioner(
          config_, cs_.get(), *matrix_, alphas_, lane.trace_log.get(), exec,
          strips);
    }
  }
  const la::LinearOperator& op = partitioned ? *strip_op_ : *op_;

  const index_t n = matrix_->rows();
  std::atomic<index_t> cursor{0};
  // Lanes on pool threads inherit the caller's correlation id, so a
  // traced daemon request keeps its id on every lane's track.
  const std::uint64_t trace_correlation = obs::correlation();
  auto run_lane = [&](index_t lane_id) {
    const obs::CorrelationScope correlate(trace_correlation);
    Lane& lane = arena[static_cast<std::size_t>(lane_id)];
    for (;;) {
      const index_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= nrhs) return;
      try {
        const Vec& f = bs[i];
        if (static_cast<index_t>(f.size()) != n) {
          throw std::invalid_argument(
              "solveMany: right-hand side " + std::to_string(i) + " has " +
              std::to_string(f.size()) + " entries, system has " +
              std::to_string(n));
        }
        SolveReport report;
        const core::Preconditioner& precond = *lane.engine.precond;
        if (cs_) {
          cs_->permute_into(f, lane.fp);
          report.result = core::pcg_solve(op, lane.fp, precond,
                                          config_.pcg_options(),
                                          lane.trace_log.get(), {}, exec,
                                          &lane.workspace);
          cs_->unpermute_into(report.result.solution, report.solution);
        } else {
          report.result = core::pcg_solve(op, f, precond,
                                          config_.pcg_options(),
                                          lane.trace_log.get(), {}, exec,
                                          &lane.workspace);
          report.solution = report.result.solution;
        }
        report.alphas = alphas_;
        report.interval = interval_;
        report.coloring = stats_;
        report.preconditioner_name = precond.name();
        report.steps = config_.steps;
        report.format_selected = resolved_format_;
        report.shards = partitioned ? shards() : 0;
        br.reports[i] = std::move(report);  // distinct slot per RHS: no race
      } catch (...) {
        br.errors[i] = std::current_exception();
      }
    }
  };

  if (lanes == 1 || pool == nullptr) {
    run_lane(0);
  } else {
    // One pool job for the whole batch; the atomic cursor inside run_lane
    // does the per-RHS stealing.  Lane bodies catch everything, so the
    // pool's own exception channel stays quiet and every RHS completes.
    pool->for_each(0, lanes, run_lane);
  }

  br.concurrency = lanes;
  br.wall_seconds = timer.seconds();
  return br;
}

}  // namespace mstep::solver
