#include "solver/solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "color/greedy.hpp"
#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_operator.hpp"

namespace mstep::solver {

namespace {

ColoringStats stats_from(const color::ColoredSystem& cs) {
  ColoringStats stats;
  stats.used = true;
  stats.num_classes = cs.num_classes();
  stats.min_class_size = cs.size();
  stats.max_class_size = 0;
  for (int c = 0; c < cs.num_classes(); ++c) {
    stats.min_class_size = std::min(stats.min_class_size, cs.class_size(c));
    stats.max_class_size = std::max(stats.max_class_size, cs.class_size(c));
  }
  return stats;
}

double ssor_omega(const SolverConfig& config) {
  const auto it = config.splitting_options.find("omega");
  return it == config.splitting_options.end() ? 1.0 : it->second;
}

}  // namespace

namespace detail {

PrecondChoice make_preconditioner(const SolverConfig& config,
                                  const color::ColoredSystem* cs,
                                  const la::CsrMatrix& matrix,
                                  const std::vector<double>& alphas,
                                  core::KernelLog* log,
                                  const par::Execution* exec,
                                  const shard::ShardPlan* strips,
                                  par::ThreadPool* strip_pool) {
  PrecondChoice choice;
  if (config.steps <= 0) {
    choice.precond =
        std::make_unique<core::IdentityPreconditioner>(matrix.rows());
    return choice;
  }
  // Algorithm-2 fast path: the Conrad–Wallach multicolor sweep is the
  // SSOR(omega = 1) m-step operator on the colour-permuted matrix.  One
  // engine serves every execution mode, differing only in its strips: the
  // caller's (the region-sharded backend), else one per pool thread under
  // a parallel execution policy, else one (serial, inline).  Tiny systems
  // keep one strip: per-phase pool dispatch costs more than it saves there
  // (same threshold as the Execution kernels).  Any strip count is bitwise
  // the serial sweep.
  if (cs && config.splitting == "ssor" && ssor_omega(config) == 1.0) {
    const bool threaded =
        exec && exec->parallel() && matrix.rows() >= par::kSerialCutoff;
    par::ThreadPool* pool = strips ? strip_pool
                                   : (threaded ? exec->pool() : nullptr);
    auto plan = strips ? std::make_shared<const core::MulticolorSweepPlan>(
                             *cs, alphas, *strips)
                       : std::make_shared<const core::MulticolorSweepPlan>(
                             *cs, alphas, threaded ? exec->threads() : 1);
    choice.precond =
        std::make_unique<core::MulticolorMStepSsor>(std::move(plan), pool, log);
    return choice;
  }
  // Generic m-step engine: every registered splitting threads its sweep
  // through the execution policy (deterministic, bitwise the serial
  // sweep) instead of only the multicolor fast path.
  choice.splitting = SplittingRegistry::instance().create(
      config.splitting, matrix, config.splitting_options);
  choice.precond = std::make_unique<core::MStepPreconditioner>(
      matrix, *choice.splitting, alphas, log,
      exec && exec->parallel() ? exec : nullptr);
  return choice;
}

}  // namespace detail

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  // One pool for the solver's whole lifetime: every Prepared (and hence
  // every step and right-hand side) reuses the same warm threads.  It is
  // sized for the wider of the two demands on it — kernel threading
  // (threads) and batch lanes (batch) — through ExecutionConfig::resolve(),
  // which collapses 0 and 1 to "no pool", so no path can construct a
  // 0-thread pool.
  const int kernel_threads = config_.execution.resolve();
  const int lane_threads = config_.batch >= 2 ? config_.batch : 0;
  // The sharded backend carves one task per shard from the same pool, so
  // the pool is provisioned for the REQUESTED shard count (the effective
  // count is only known at prepare time, after the clamp; over-provision
  // by a few idle workers is the cheap side of that trade).
  const int shard_threads = config_.execution.shard_count();
  const int pool_threads =
      std::max({kernel_threads, lane_threads, shard_threads});
  if (pool_threads > 0) {
    exec_ = std::make_shared<par::Execution>(pool_threads);
  }
}

Solver Solver::from_config(SolverConfig config) {
  config.validate();
  return Solver(std::move(config));
}

Solver Solver::from_string(const std::string& text) {
  return from_config(SolverConfig::from_string(text));
}

Prepared Solver::prepare(const la::CsrMatrix& k, core::KernelLog* log) const {
  if (config_.ordering == Ordering::kMulticolor) {
    return prepare(k, color::greedy_classes_from_matrix(k), log);
  }
  return prepare(k, color::ColorClasses{}, log);
}

Prepared Solver::prepare(const la::CsrMatrix& k,
                         const color::ColorClasses& classes,
                         core::KernelLog* log) const {
  if (k.rows() != k.cols()) {
    throw std::invalid_argument("Solver: matrix must be square");
  }
  const obs::Span prepare_span("prepare");
  Prepared p;
  p.config_ = config_;
  p.exec_ = exec_;
  p.log_ = log;

  // 1. Ordering.
  {
    const obs::Span coloring_span("coloring");
    if (config_.ordering == Ordering::kMulticolor) {
      if (classes.num_classes() == 0) {
        throw std::invalid_argument(
            "Solver: multicolor ordering needs colour classes");
      }
      p.cs_ = std::make_unique<color::ColoredSystem>(
          color::make_colored_system(k, classes));
      p.matrix_ = &p.cs_->matrix;
      p.stats_ = stats_from(*p.cs_);
    } else {
      p.matrix_ = &k;
    }
  }

  // 2. Region-sharded backend: cut every color block into contiguous
  // strips, on which the outer products (step 4) and, on the multicolor
  // SSOR fast path, the sweep run one pool task per strip.  Needs a
  // multicolour system — the color blocks ARE the regions — and the shared
  // pool the Solver provisioned for the shard count.  The clamp
  // (ShardPlan::build) can collapse the request to one shard on a tiny
  // system, which is the serial region: no machinery engages and the
  // report says shards = 0.
  if (config_.execution.shard_count() >= 2 && p.cs_ && exec_) {
    auto plan = std::make_unique<shard::ShardPlan>(shard::ShardPlan::build(
        p.cs_->class_start, config_.execution.shards));
    if (plan->num_shards() >= 2) {
      p.shards_ = plan->num_shards();
      p.shard_plan_ = std::move(plan);
    }
  }

  // 3. Parameters and preconditioner (splitting via the registries).
  {
    const obs::Span params_span("params");
    if (config_.steps > 0) {
      const auto& entry = SplittingRegistry::instance().at(config_.splitting);
      p.interval_ = config_.interval
                        ? *config_.interval
                        : entry.default_interval(*p.matrix_,
                                                 config_.splitting_options);
      p.alphas_ = ParamStrategyRegistry::instance().alphas(
          config_.params, config_.steps, p.interval_);
    }
    // kernel_exec() gates on threads >= 2: a pool that exists only for
    // batch lanes leaves the single-solve path serial.  The sweep's strips
    // are the shards when sharded, else one per kernel thread, else one.
    auto choice = detail::make_preconditioner(
        config_, p.cs_.get(), *p.matrix_, p.alphas_, log, p.kernel_exec(),
        p.shard_plan_.get(), exec_ ? exec_->pool() : nullptr);
    p.splitting_ = std::move(choice.splitting);
    p.precond_ = std::move(choice.precond);
  }

  // 4. Operator view for the outer CG products.  `auto` is resolved HERE,
  // on the matrix PCG actually iterates on (the colour-permuted one when
  // multicolour) — a matrix that is banded in the caller's ordering can
  // scatter its diagonals under the permutation and vice versa, so the
  // probe must see the operator matrix, not the input.
  // The registry probe order is banded-first: the diagonal layout beats
  // the sliced one when the matrix is banded enough to fill it, and SELL
  // catches the irregular-but-dense-rows middle ground before the CSR
  // fallback.
  const obs::Span probe_span("format_probe");
  p.resolved_format_ = config_.format;
  if (p.resolved_format_ == MatrixFormat::kAuto) {
    if (la::DiaMatrix::profitable(*p.matrix_)) {
      p.resolved_format_ = MatrixFormat::kDia;
    } else if (la::SellMatrix::profitable(*p.matrix_)) {
      p.resolved_format_ = MatrixFormat::kSell;
    } else {
      p.resolved_format_ = MatrixFormat::kCsr;
    }
  }
  if (p.resolved_format_ == MatrixFormat::kDia) {
    p.dia_ =
        std::make_unique<la::DiaMatrix>(la::DiaMatrix::from_csr(*p.matrix_));
    p.op_ = std::make_unique<la::DiaOperator>(*p.dia_);
  } else if (p.resolved_format_ == MatrixFormat::kSell) {
    p.sell_ =
        std::make_unique<la::SellMatrix>(la::SellMatrix::from_csr(*p.matrix_));
    p.op_ = std::make_unique<la::SellOperator>(*p.sell_);
  } else {
    p.op_ = std::make_unique<la::CsrOperator>(*p.matrix_);
  }

  // The sharded backend's outer products run on step 2's strips.
  if (p.shard_plan_) {
    const shard::ShardPlan& plan = *p.shard_plan_;
    if (p.resolved_format_ == MatrixFormat::kDia) {
      p.shard_op_ = std::make_unique<shard::ShardedOperator>(
          *p.dia_, plan, *exec_->pool());
    } else if (p.resolved_format_ == MatrixFormat::kSell) {
      p.shard_op_ = std::make_unique<shard::ShardedOperator>(
          *p.sell_, plan, *exec_->pool());
    } else {
      p.shard_op_ = std::make_unique<shard::ShardedOperator>(
          *p.matrix_, plan, *exec_->pool());
    }
  }
  return p;
}

SolveReport Solver::solve(const la::CsrMatrix& k, const Vec& f,
                          core::KernelLog* log, const Vec& u0) const {
  return prepare(k, log).solve(f, u0);
}

SolveReport Solver::solve(const la::CsrMatrix& k, const Vec& f,
                          const color::ColorClasses& classes,
                          core::KernelLog* log, const Vec& u0) const {
  return prepare(k, classes, log).solve(f, u0);
}

BatchReport Solver::solveMany(const la::CsrMatrix& k, util::Span<const Vec> bs,
                              const BatchConfig& batch) const {
  return prepare(k).solveMany(bs, batch);
}

BatchReport Solver::solveMany(const la::CsrMatrix& k, util::Span<const Vec> bs,
                              const color::ColorClasses& classes,
                              const BatchConfig& batch) const {
  return prepare(k, classes).solveMany(bs, batch);
}

Vec Prepared::permute(const Vec& x) const {
  return cs_ ? cs_->permute(x) : x;
}

Vec Prepared::unpermute(const Vec& x) const {
  return cs_ ? cs_->unpermute(x) : x;
}

SolveReport Prepared::solve(const Vec& f, const Vec& u0) const {
  const Vec fp = permute(f);
  const Vec u0p = u0.empty() ? Vec{} : permute(u0);

  SolveReport report;
  // The sharded backend, when engaged, substitutes its operator — bitwise
  // identical to the plain one, so everything downstream is unchanged.
  const la::LinearOperator& op = shard_op_ ? *shard_op_ : *op_;
  report.result = core::pcg_solve(op, fp, *precond_, config_.pcg_options(),
                                  log_, u0p, kernel_exec());
  report.solution = unpermute(report.result.solution);
  report.alphas = alphas_;
  report.interval = interval_;
  report.coloring = stats_;
  report.preconditioner_name = precond_->name();
  report.steps = config_.steps;
  report.format_selected = resolved_format_;
  report.shards = shards_;
  return report;
}

}  // namespace mstep::solver
