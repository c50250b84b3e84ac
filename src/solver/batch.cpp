// The batched multi-RHS solve engine behind Prepared::solveMany.
//
// One expensive setup — coloring, permutation, splitting parameters, alpha
// coefficients — serves many right-hand sides (the reuse the paper's whole
// m-step design is built around); the engine schedules the independent PCG
// solves concurrently on the solver's shared thread pool.  Scheduling is a
// work-stealing round-robin: each worker lane pops the next unsolved
// right-hand sides off one atomic cursor, so a slow right-hand side (more
// iterations) never stalls the rest of the batch behind a static
// partition.
//
// On the Algorithm-2 path a lane takes blocks of w = min(4, ceil(nrhs /
// lanes)) right-hand sides and solves each block with one
// core::pcg_solve_block: one pass over the matrix serves all w vectors —
// the longer vector operations the paper's CYBER 203/205 timings reward
// (Section 3).  With w = 1, and on every other path, a lane runs one
// pcg_solve per right-hand side.
//
// Each lane owns a scratch arena — its own preconditioner instance plus
// its PCG workspace and reorder buffers — built once before the loop, so
// nothing allocates inside the batch loop beyond each report's solution
// vector.  One lane rule: a single lane runs Prepared::solve's path, on
// the strip partition if there is one (and then w = 1); two or more lanes
// run inside one pool job, which may not dispatch, so they run the serial
// kernels (on the Algorithm-2 path over the pipeline's own sweep plan,
// its strips run inline).  Either way every per-RHS result is BITWISE
// identical to the serial Prepared::solve.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "la/simd.hpp"
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
  /// Permuted right-hand sides of the current block; each moves on into
  /// its report as the solution buffer.
  std::vector<Vec> fp;
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

BatchReport Prepared::solveMany(util::Span<const Vec> bs) const {
  util::Timer timer;
  BatchReport br;
  br.reports.resize(bs.size());
  br.errors.resize(bs.size());
  const auto nrhs = static_cast<index_t>(bs.size());
  if (nrhs == 0) return br;

  // Lane count: the config's `batch` as asked (deliberate
  // oversubscription stays possible), else one lane per pool thread capped
  // at the hardware width: lanes beyond the physical cores only add
  // timesharing and arena memory, never throughput.  Never more lanes than
  // there are right-hand sides.  The pool runs them all at once: Solver
  // sizes it max(threads, batch) wide, and without a pool `batch` is 0 or
  // 1, so one lane.
  par::ThreadPool* pool = exec_ ? exec_->pool() : nullptr;
  const int pool_width = pool ? pool->threads() : 1;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  int want = config_.batch;
  if (want == 0) want = hw > 0 ? std::min(pool_width, hw) : pool_width;
  const int lanes = std::min(want, static_cast<int>(nrhs));
  // A single lane runs on the calling thread and leaves the pool free for
  // the strip partition, exactly as solve() does.
  const bool partitioned = strips_ && lanes == 1;
  const par::Execution* exec = partitioned ? exec_.get() : nullptr;
  const la::LinearOperator& op = partitioned ? *strip_op_ : *op_;

  // Build one scratch arena per lane; the expensive setup — coloring,
  // interval, alphas, the storage — is shared read-only.  On the
  // Algorithm-2 path the lanes share this pipeline's sweep plan too; a lane
  // without the pool runs its strips inline.  Other paths go through
  // prepare()'s selection policy.  A lane's KernelLog is non-null only
  // when tracing is on as the batch starts, so untraced batches keep the
  // log-free code paths.
  const auto* sweep =
      dynamic_cast<const core::MulticolorMStepSsor*>(precond_.get());
  const std::shared_ptr<const core::MulticolorSweepPlan> sweep_plan =
      sweep ? sweep->plan() : nullptr;
  const bool tracing = obs::Tracer::instance().enabled();
  std::vector<Lane> arena(static_cast<std::size_t>(lanes));
  for (Lane& lane : arena) {
    if (tracing) lane.trace_log = std::make_unique<obs::TracingKernelLog>();
    if (sweep_plan) {
      lane.engine.precond = std::make_unique<core::MulticolorMStepSsor>(
          sweep_plan, alphas_, partitioned ? pool : nullptr,
          lane.trace_log.get());
    } else {
      lane.engine = detail::make_preconditioner(
          config_, cs_.get(), *matrix_, alphas_, lane.trace_log.get(), exec,
          nullptr, nullptr, op_.get());
    }
  }

  // Block width: the Algorithm-2 lanes on the serial kernels share the
  // right-hand sides out in blocks of up to kSellSlice (one AVX2 register
  // of doubles per block row).
  constexpr auto kMaxWidth = static_cast<index_t>(la::simd::kSellSlice);
  const index_t width =
      sweep_plan && !partitioned
          ? std::min(kMaxWidth, (nrhs + lanes - 1) / lanes)
          : 1;
  for (Lane& lane : arena) lane.fp.resize(static_cast<std::size_t>(width));

  const index_t n = matrix_->rows();
  const core::PcgOptions options = config_.pcg_options();
  std::atomic<index_t> cursor{0};
  // Lanes on pool threads inherit the caller's correlation id, so a
  // traced daemon request keeps its id on every lane's track.
  const std::uint64_t trace_correlation = obs::correlation();
  auto run_lane = [&](index_t lane_id) {
    const obs::CorrelationScope correlate(trace_correlation);
    Lane& lane = arena[static_cast<std::size_t>(lane_id)];
    const core::Preconditioner& precond = *lane.engine.precond;
    index_t ids[kMaxWidth];
    for (;;) {
      const index_t first = cursor.fetch_add(width, std::memory_order_relaxed);
      if (first >= nrhs) return;
      // Admit the block's right-hand sides; a wrong-sized one reports its
      // own error and the rest solve without it.
      std::size_t cols = 0;
      for (index_t i = first; i < std::min(nrhs, first + width); ++i) {
        try {
          const Vec& f = bs[i];
          if (static_cast<index_t>(f.size()) != n) {
            throw std::invalid_argument(
                "solveMany: right-hand side " + std::to_string(i) + " has " +
                std::to_string(f.size()) + " entries, system has " +
                std::to_string(n));
          }
          if (cs_) cs_->permute_into(f, lane.fp[cols]);
          ids[cols++] = i;
        } catch (...) {
          br.errors[i] = std::current_exception();
        }
      }
      if (cols == 0) continue;
      try {
        std::vector<core::PcgResult> results;
        if (width == 1) {
          results.push_back(core::pcg_solve(
              op, cs_ ? lane.fp[0] : bs[ids[0]], precond, options,
              lane.trace_log.get(), {}, exec, &lane.workspace));
        } else {
          results = core::pcg_solve_block(
              *store_, util::Span<Vec>(lane.fp.data(), cols),
              static_cast<const core::MulticolorMStepSsor&>(precond), options,
              lane.trace_log.get(), &lane.workspace);
        }
        for (std::size_t c = 0; c < cols; ++c) {
          SolveReport report = make_report(std::move(results[c]), precond,
                                           partitioned ? shards() : 0);
          if (cs_) {
            // The spent permuted right-hand side becomes the report's
            // solution buffer: no allocation, and no buffer held past its
            // use by the lane.
            report.solution = std::move(lane.fp[c]);
            cs_->unpermute_into(report.result.solution, report.solution);
          } else {
            report.solution = report.result.solution;
          }
          // A distinct slot per right-hand side: no race.
          br.reports[ids[c]] = std::move(report);
        }
      } catch (...) {
        for (std::size_t c = 0; c < cols; ++c) {
          br.errors[ids[c]] = std::current_exception();
        }
      }
    }
  };

  if (lanes == 1) {
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
