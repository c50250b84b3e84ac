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

bool uses_multicolor_sweep(const SolverConfig& config,
                           const color::ColoredSystem* cs) {
  return config.steps > 0 && cs != nullptr && config.splitting == "ssor" &&
         ssor_omega(config) == 1.0;
}

PrecondChoice make_preconditioner(const SolverConfig& config,
                                  const color::ColoredSystem* cs,
                                  const la::CsrMatrix& matrix,
                                  const std::vector<double>& alphas,
                                  core::KernelLog* log,
                                  const par::Execution* exec,
                                  const shard::ShardPlan* strips,
                                  std::shared_ptr<const la::DiaMatrix> store,
                                  const la::LinearOperator* op) {
  PrecondChoice choice;
  if (config.steps <= 0) {
    choice.precond =
        std::make_unique<core::IdentityPreconditioner>(matrix.rows());
    return choice;
  }
  // Algorithm-2 fast path: the Conrad–Wallach multicolor sweep is the
  // SSOR(omega = 1) m-step operator on the colour-permuted matrix.  One
  // engine serves every execution mode, differing only in its strips: the
  // partition's, one pool task each, else one (serial, inline).  Any strip
  // count is bitwise the serial sweep.  The sweep reads `store` when the
  // caller has one, else its plan builds its own.
  if (uses_multicolor_sweep(config, cs)) {
    auto plan = std::make_shared<const core::MulticolorSweepPlan>(
        *cs, strips ? *strips : shard::ShardPlan::build(cs->class_start, 1),
        std::move(store));
    choice.precond = std::make_unique<core::MulticolorMStepSsor>(
        std::move(plan), alphas, strips && exec ? exec->pool() : nullptr,
        log);
    return choice;
  }
  // Generic m-step engine: every registered splitting, on the calling
  // thread, its K z on the pipeline's serial operator.
  if (op == nullptr) {
    throw std::invalid_argument(
        "make_preconditioner: the generic m-step engine needs an operator");
  }
  choice.splitting = SplittingRegistry::instance().create(
      config.splitting, matrix, config.splitting_options);
  choice.precond = std::make_unique<core::MStepPreconditioner>(
      *op, *choice.splitting, alphas, log);
  return choice;
}

}  // namespace detail

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  // One pool for the solver's whole lifetime: every Prepared (and hence
  // every step and right-hand side) reuses the same warm threads.  It is
  // sized for the wider of the two demands on it — the strip partition
  // (threads) and batch lanes (batch) — through ExecutionConfig::resolve(),
  // which collapses 0 and 1 to "no pool", so no path can construct a
  // 0-thread pool.
  const int lane_threads = config_.batch >= 2 ? config_.batch : 0;
  const int pool_threads = std::max(config_.execution.resolve(), lane_threads);
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

  // 2. The one strip partition: every colour block (the whole row range
  // in the natural ordering) cut into `threads` strips, each the paper's
  // processor region.  Below par::kSerialCutoff rows dispatch costs more
  // than it saves; there, or clamped to one strip, the solve is serial.
  const index_t n = p.matrix_->rows();
  if (config_.execution.resolve() >= 2 && n >= par::kSerialCutoff) {
    auto strips = std::make_unique<shard::ShardPlan>(shard::ShardPlan::build(
        p.cs_ ? p.cs_->class_start : std::vector<index_t>{0, n},
        config_.execution.resolve()));
    if (strips->num_shards() >= 2) p.strips_ = std::move(strips);
  }

  // 3. The one matrix storage (la::DiaMatrix: constant-offset row runs
  // over the CSR rows), cut at every cell of the partition so the sweep
  // finds each run inside one (strip, class) cell.  Every outer product
  // runs on it, bitwise CSR.  The runs are built when the Algorithm-2
  // sweep reads them; for any other preconditioner they would be a second
  // copy of the values that only the outer product reads, so there the
  // store reads the CSR rows in place and costs nothing to build or hold.
  {
    const obs::Span store_span("store");
    p.store_ = std::make_shared<const la::DiaMatrix>(
        detail::uses_multicolor_sweep(config_, p.cs_.get())
            ? la::DiaMatrix::from_csr(*p.matrix_,
                                      p.strips_ ? p.strips_->cell_bounds()
                                                : p.cs_->class_start)
            : la::DiaMatrix::without_runs(*p.matrix_));
  }

  // 4. The operator views for the outer CG products: serial, and over
  // step 2's strips when there are any.  The generic m-step engine's K z
  // shares the serial one.
  p.op_ = std::make_unique<la::DiaOperator>(*p.store_);
  if (p.strips_) {
    p.strip_op_ = std::make_unique<shard::ShardedOperator>(
        *p.store_, *p.strips_, *exec_->pool());
  }

  // 5. Parameters, then the preconditioner (splitting via the registries).
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
  }
  {
    const obs::Span precond_span("precond");
    auto choice = detail::make_preconditioner(
        config_, p.cs_.get(), *p.matrix_, p.alphas_, log, p.kernel_exec(),
        p.strips_.get(), p.store_, p.op_.get());
    p.splitting_ = std::move(choice.splitting);
    p.precond_ = std::move(choice.precond);
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

Vec Prepared::permute(const Vec& x) const {
  return cs_ ? cs_->permute(x) : x;
}

Vec Prepared::unpermute(const Vec& x) const {
  return cs_ ? cs_->unpermute(x) : x;
}

SolveReport Prepared::solve(const Vec& f, const Vec& u0) const {
  const Vec fp = permute(f);
  const Vec u0p = u0.empty() ? Vec{} : permute(u0);
  SolveReport report = make_report(
      core::pcg_solve(operator_view(), fp, *precond_, config_.pcg_options(),
                      log_, u0p, kernel_exec()),
      *precond_, shards());
  report.solution = unpermute(report.result.solution);
  return report;
}

SolveReport Prepared::make_report(core::PcgResult result,
                                  const core::Preconditioner& precond,
                                  int shards) const {
  SolveReport rep;
  rep.result = std::move(result);
  rep.alphas = alphas_;
  rep.interval = interval_;
  rep.coloring = stats_;
  rep.preconditioner_name = precond.name();
  rep.steps = config_.steps;
  rep.shards = shards;
  return rep;
}

}  // namespace mstep::solver
