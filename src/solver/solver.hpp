// The mstep::Solver facade — the paper's whole pipeline behind one call.
//
//   auto report = Solver::from_config(config).solve(K, f);
//
// owns: multicolour ordering (caller-supplied classes or a greedy matrix
// colouring), splitting construction through the registry, alpha selection
// through the parameter-strategy registry, preconditioner assembly (with
// the Algorithm-2 Conrad–Wallach fast path when it applies), the one
// matrix storage the outer products and the sweep share (la::DiaMatrix),
// and PCG itself.  Prepared splits the pipeline from the solve so one
// factorization serves many right-hand sides.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/pcg.hpp"
#include "core/planner.hpp"
#include "core/preconditioner.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "par/execution.hpp"
#include "shard/partition.hpp"
#include "solver/config.hpp"
#include "split/splitting.hpp"
#include "util/span.hpp"

namespace mstep::solver {

/// How the multicolour stage reshaped the system (all zero when the solve
/// ran in the caller's ordering).
struct ColoringStats {
  bool used = false;
  int num_classes = 0;
  index_t min_class_size = 0;
  index_t max_class_size = 0;
};

/// Everything a solve produced: the PCG result plus the pipeline choices
/// that explain it.
struct SolveReport {
  core::PcgResult result;      // solution in the solve ordering
  Vec solution;                // solution in the caller's ordering
  std::vector<double> alphas;  // chosen coefficients; empty for m = 0
  core::SpectrumInterval interval{};  // interval the strategy optimized over
  ColoringStats coloring;
  std::string preconditioner_name;
  int steps = 0;
  /// Strips of the partition this solve ran on (`threads` after the
  /// widest-colour-block clamp), or 0 for a serial run: threads in {0, 1},
  /// under par::kSerialCutoff rows, or a batch lane beside others.
  int shards = 0;

  [[nodiscard]] bool converged() const { return result.converged; }
  [[nodiscard]] int iterations() const { return result.iterations; }

  /// Eq. (4.1) hook: predicted seconds under a measured cost decomposition.
  [[nodiscard]] double predicted_seconds(
      const core::StepCostModel& costs) const {
    return costs.predict(steps, result.iterations);
  }
};

namespace detail {

/// True when make_preconditioner picks the Algorithm-2 sweep, the one
/// preconditioner that reads the store's runs.
[[nodiscard]] bool uses_multicolor_sweep(const SolverConfig& config,
                                         const color::ColoredSystem* cs);

/// The one preconditioner-selection policy, shared by Solver::prepare and
/// the batch engine's lanes: the Algorithm-2 Conrad–Wallach sweep for
/// multicolor SSOR(omega = 1), the generic m-step engine for every other
/// splitting, the identity for m = 0.  Keeping the choice in one place is
/// what guarantees a batch lane's operator is mathematically the solve
/// path's.
///
/// `strips` (optional) is the solve's strip partition, run on `exec`'s
/// pool: the Algorithm-2 sweep runs one strip per pool task; without it
/// the sweep runs serially.  `store` (optional) is the pipeline's matrix
/// storage, cut at the strips' cells; the Algorithm-2 sweep reads it
/// instead of building its own.  `op` is the pipeline's serial operator
/// view of the same storage, which the generic engine runs its K z on,
/// on the calling thread.  The generic engine throws
/// std::invalid_argument without it.
struct PrecondChoice {
  std::unique_ptr<split::Splitting> splitting;  // set on the generic path
  std::unique_ptr<core::Preconditioner> precond;
};

[[nodiscard]] PrecondChoice make_preconditioner(
    const SolverConfig& config, const color::ColoredSystem* cs,
    const la::CsrMatrix& matrix, const std::vector<double>& alphas,
    core::KernelLog* log, const par::Execution* exec,
    const shard::ShardPlan* strips = nullptr,
    std::shared_ptr<const la::DiaMatrix> store = nullptr,
    const la::LinearOperator* op = nullptr);

}  // namespace detail

/// Everything a batched solve produced: one SolveReport per right-hand
/// side (input order) plus a per-RHS error channel — one bad right-hand
/// side never poisons the rest of the batch — and aggregate throughput
/// numbers.
struct BatchReport {
  std::vector<SolveReport> reports;        // reports[i] belongs to bs[i]
  std::vector<std::exception_ptr> errors;  // errors[i] set iff RHS i threw
  int concurrency = 0;                     // worker lanes actually used
  double wall_seconds = 0.0;               // whole-batch wall time

  [[nodiscard]] std::size_t size() const { return reports.size(); }
  /// True when right-hand side i solved without throwing.
  [[nodiscard]] bool ok(std::size_t i) const { return !errors[i]; }
  [[nodiscard]] std::size_t num_failed() const;
  /// Every right-hand side solved AND converged.
  [[nodiscard]] bool all_converged() const;
  [[nodiscard]] long long total_iterations() const;
  /// Aggregate throughput: successfully solved RHSs per wall second.
  [[nodiscard]] double solves_per_second() const;
  /// Rethrow the first per-RHS exception; no-op when the batch is clean.
  /// The reports of the other right-hand sides stay valid either way.
  void rethrow_first_error() const;
};

class Prepared;

class Solver {
 public:
  /// Validates the config (throws std::invalid_argument on bad fields).
  static Solver from_config(SolverConfig config);
  /// Convenience: from_config(SolverConfig::from_string(text)).
  static Solver from_string(const std::string& text);

  [[nodiscard]] const SolverConfig& config() const { return config_; }

  /// The execution engine backing this solver's kernels and batch lanes,
  /// shared by every Prepared it creates so one thread pool serves all
  /// steps and right-hand sides.  The pool is sized for the wider of the
  /// two demands (`threads`, `batch`); nullptr when neither asks for
  /// parallelism (threads in {0, 1} and batch in {0, 1}).
  [[nodiscard]] const par::Execution* execution() const {
    return exec_.get();
  }

  /// Instantiate the pipeline on a concrete (square, SPD) matrix.  With a
  /// multicolour ordering and no caller classes, the equations are
  /// coloured greedily from the matrix graph.  `k` must outlive the
  /// returned object; `log` (optional) receives the kernel stream of both
  /// preconditioner assembly-time applications and later solves.
  [[nodiscard]] Prepared prepare(const la::CsrMatrix& k,
                                 core::KernelLog* log = nullptr) const;
  [[nodiscard]] Prepared prepare(const la::CsrMatrix& k,
                                 const color::ColorClasses& classes,
                                 core::KernelLog* log = nullptr) const;

  /// One-call form: prepare + solve.  `f` and `u0` are in the caller's
  /// ordering, as is the returned report's `solution`.
  [[nodiscard]] SolveReport solve(const la::CsrMatrix& k, const Vec& f,
                                  core::KernelLog* log = nullptr,
                                  const Vec& u0 = {}) const;
  [[nodiscard]] SolveReport solve(const la::CsrMatrix& k, const Vec& f,
                                  const color::ColorClasses& classes,
                                  core::KernelLog* log = nullptr,
                                  const Vec& u0 = {}) const;

 private:
  explicit Solver(SolverConfig config);

  SolverConfig config_;
  std::shared_ptr<par::Execution> exec_;  // set when execution is parallel
};

/// An instantiated pipeline bound to one matrix: the coloured system, the
/// splitting, the alphas, the preconditioner, and the operator view.
/// Reusable across right-hand sides.
class Prepared {
 public:
  /// Solve for one right-hand side (caller's ordering, as is `u0`).
  [[nodiscard]] SolveReport solve(const Vec& f, const Vec& u0 = {}) const;

  /// Solve many independent right-hand sides concurrently, reusing this
  /// pipeline's one coloring/splitting/alpha setup.  The config's `batch`
  /// sets the lanes (0: one per pool thread, capped at the hardware
  /// width), never more than there are right-hand sides.  Work-stealing
  /// round-robin over the RHSs on the solver's shared thread pool: each
  /// worker lane owns a scratch arena (its own serial preconditioner — on
  /// the Algorithm-2 path an engine over this pipeline's sweep plan, its
  /// strips run inline — and PCG workspaces), grabs the next unsolved RHSs, and
  /// runs a full serial-kernel PCG on them.  On the Algorithm-2 path a
  /// lane takes blocks of min(4, ceil(nrhs / lanes)) right-hand sides and
  /// solves each block in one core::pcg_solve_block (one pass over the
  /// matrix for the whole block); elsewhere it takes one at a time.
  /// Nothing allocates inside the batch loop beyond each report's
  /// solution, and every per-RHS result is BITWISE identical to the
  /// corresponding serial solve(bs[i]).  A throwing right-hand side
  /// records its exception in the report's error channel; the remaining
  /// RHSs, its block's included, still complete.  Kernel logging is
  /// single-stream and therefore skipped in batched solves.
  [[nodiscard]] BatchReport solveMany(util::Span<const Vec> bs) const;

  /// The matrix PCG iterates on (colour-permuted when multicolour).
  [[nodiscard]] const la::CsrMatrix& matrix() const { return *matrix_; }
  /// The one storage of matrix(): the outer products' operator and the
  /// Algorithm-2 sweep's runs.
  [[nodiscard]] const la::DiaMatrix& storage() const { return *store_; }
  [[nodiscard]] const core::Preconditioner& preconditioner() const {
    return *precond_;
  }
  [[nodiscard]] const std::vector<double>& alphas() const { return alphas_; }
  [[nodiscard]] core::SpectrumInterval interval() const { return interval_; }
  [[nodiscard]] const ColoringStats& coloring() const { return stats_; }
  [[nodiscard]] const SolverConfig& config() const { return config_; }

  /// Always kDia: storage() is the one layout.  Read only by perfbench/,
  /// which compiles against it; deleted with MatrixFormat.
  [[nodiscard]] MatrixFormat resolved_format() const {
    return MatrixFormat::kDia;
  }

  /// Strips of this pipeline's partition: the configured `threads`
  /// clamped to the widest colour block, or 0 when solves run serially.
  [[nodiscard]] int shards() const {
    return strips_ ? strips_->num_shards() : 0;
  }

  /// Caller ordering <-> solve ordering (identity when natural).
  [[nodiscard]] Vec permute(const Vec& x) const;
  [[nodiscard]] Vec unpermute(const Vec& x) const;

 private:
  friend class Solver;
  Prepared() = default;

  /// The execution policy for in-solve kernels: set only when prepare cut
  /// a strip partition, NOT when the pool exists merely to serve batch
  /// lanes — `threads=0;batch=8` keeps every individual solve serial.
  [[nodiscard]] const par::Execution* kernel_exec() const {
    return strips_ ? exec_.get() : nullptr;
  }

  /// The operator a single-vector solve runs on: the strip view when
  /// prepare cut a partition, else the serial view.  Both are bitwise the
  /// same products.
  [[nodiscard]] const la::LinearOperator& operator_view() const {
    return strip_op_ ? *strip_op_ : *op_;
  }

  /// A report of `result` with this pipeline's setup facts, for a solve
  /// that ran `precond` on `shards` strips; the caller sets its solution.
  [[nodiscard]] SolveReport make_report(core::PcgResult result,
                                        const core::Preconditioner& precond,
                                        int shards) const;

  SolverConfig config_;
  // cs_ and the storage live on the heap so every internal pointer
  // (matrix_, the operator views, the preconditioner's system reference)
  // stays valid when a Prepared is moved.
  std::unique_ptr<color::ColoredSystem> cs_;  // set when multicolour
  const la::CsrMatrix* matrix_ = nullptr;     // cs_->matrix or the caller's k
  // The one matrix storage: the outer products and the sweep plan's runs.
  std::shared_ptr<const la::DiaMatrix> store_;
  // Serial view of store_; the generic m-step engine's K z runs on it.
  std::unique_ptr<la::LinearOperator> op_;
  std::unique_ptr<split::Splitting> splitting_;
  std::unique_ptr<core::Preconditioner> precond_;
  // The one strip partition, null when solves run serially: the sweep and
  // strip_op_ (the outer products) run on it.
  std::unique_ptr<shard::ShardPlan> strips_;
  std::unique_ptr<la::LinearOperator> strip_op_;
  // Shared with the creating Solver (and its other Prepared instances):
  // one pool, warm across steps and right-hand sides.
  std::shared_ptr<par::Execution> exec_;
  std::vector<double> alphas_;
  core::SpectrumInterval interval_{};
  ColoringStats stats_;
  core::KernelLog* log_ = nullptr;
};

}  // namespace mstep::solver
