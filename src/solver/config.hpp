// Declarative solve configuration for the mstep::solver facade.
//
// Every knob the paper studies — splitting (and its omega), step count m,
// alpha parametrization, equation ordering, stopping rule — is one field
// here, and the whole config round-trips through a compact string form:
//
//   splitting=ssor:omega=1.2;m=4;params=lsq;ordering=multicolor;
//   stop=delta_inf;tol=1e-06;maxit=20000
//
// so an experiment is reproducible from one line of a log, and a CLI
// driver exposes the full design space as --splitting/--m/--params/
// --threads/...
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/pcg.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"

namespace mstep::solver {

/// Equation ordering applied before the solve.
enum class Ordering {
  kNatural,     // solve in the caller's ordering
  kMulticolor,  // colour-permute first (Section 3)
};

/// The values of the `format=` parse alias.  Every solve runs on one
/// storage, la::DiaMatrix (constant-offset row runs over the CSR rows,
/// bitwise CSR), so no value changes a solve.  Kept only because
/// perfbench/ compiles against it (SolverConfig::format,
/// Prepared::resolved_format()); the benchmark revision that lets src/
/// shrink (ROADMAP) deletes it.
enum class MatrixFormat { kCsr, kDia, kSell, kAuto };

/// Execution policy: the one in-solve parallelism knob.  threads = 0 is
/// the serial default.  threads = n >= 2 runs on a pool of n threads
/// (including the caller) over n strips of every colour block; systems
/// below par::kSerialCutoff rows stay serial.  Any thread count is BITWISE
/// the serial solve.  `shards=N` parses as an alias (the wider wins).
struct ExecutionConfig {
  int threads = 0;

  [[nodiscard]] bool parallel() const { return threads >= 1; }

  /// Pool-construction normal form: how many pool threads this config asks
  /// for, with 0 AND 1 both collapsed to 0 — one thread is the caller, so
  /// "one thread" and "serial" are the same policy and neither constructs
  /// a pool.  Every site that sizes a ThreadPool/Execution from a config
  /// goes through here, so no round-tripped config can ever request a
  /// 0-thread pool (ThreadPool itself throws on < 1 as the backstop).
  [[nodiscard]] int resolve() const { return threads >= 2 ? threads : 0; }

  /// Strips a solve asks for: one per pool thread, so exactly resolve().
  [[nodiscard]] int shard_count() const { return resolve(); }

  friend bool operator==(const ExecutionConfig& a, const ExecutionConfig& b) {
    return a.threads == b.threads;
  }
  friend bool operator!=(const ExecutionConfig& a, const ExecutionConfig& b) {
    return !(a == b);
  }
};

/// Upper bound on `threads`, `shards` and `batch`: the solver's pool is
/// max(threads, batch) wide, so a config — a daemon request's included —
/// never asks for more pool threads than this.  validate() enforces it.
inline constexpr int kMaxThreads = 256;

/// The whole design space of one solve, declaratively.  Every field
/// round-trips through to_string()/from_string(), and from_cli() parses
/// each --flag with the same per-key parser as the string form, so a
/// config is reproducible from one log line.
struct SolverConfig {
  /// SplittingRegistry key (jacobi | ssor | richardson | user-registered).
  std::string splitting = "ssor";
  SplitOptions splitting_options;        // e.g. {"omega", 1.2}
  int steps = 4;                         // m; 0 = plain CG
  std::string params = "lsq";            // parameter strategy key
  Ordering ordering = Ordering::kMulticolor;
  /// A parse alias (string form "format=csr|dia|sell|auto", CLI
  /// --format): the value is validated so old config lines keep working,
  /// but the solver ignores it, to_string() omits it and operator== does
  /// not compare it, so every spelling is the same solve and shares one
  /// daemon cache key.  Read only by perfbench/; see MatrixFormat.
  MatrixFormat format = MatrixFormat::kCsr;
  core::StopRule stop_rule = core::StopRule::kDeltaInf;
  double tolerance = 1e-6;               // on the stop_rule quantity
  int max_iterations = 20000;
  bool record_history = false;           // keep per-iteration history
  /// Serial by default; serializes as "threads=N" only when parallel, so
  /// serial config strings are unchanged from the unthreaded library.
  ExecutionConfig execution;
  /// solveMany lanes (string form ";batch=N", CLI --batch=N), the one
  /// lane knob: each lane solves up to la::simd::kSellSlice (4)
  /// right-hand sides at once as one block on the Algorithm-2 path (one at
  /// a time elsewhere).  0 = auto (one lane per pool thread, capped at
  /// the hardware width); 1 runs one lane on the calling thread; N >= 2
  /// also sizes the solver's pool at least N wide, so `threads=0;batch=8`
  /// runs eight lanes concurrently while every solve stays on the serial
  /// kernel path.
  int batch = 0;
  /// Spectrum interval for the parameter strategy; the splitting's default
  /// (e.g. [0, 1] for SSOR) when unset.
  std::optional<core::SpectrumInterval> interval;

  /// Throws std::invalid_argument if any field is out of range or names an
  /// unregistered splitting/strategy (SSOR omega must lie in (0, 2);
  /// threads and batch in [0, kMaxThreads]).
  void validate() const;

  /// Serialize; from_string(to_string()) reproduces every field the
  /// solver reads (not the `format` alias).
  [[nodiscard]] std::string to_string() const;
  static SolverConfig from_string(const std::string& text);

  /// Read the config flags out of a parsed command line; flags that are
  /// absent keep `defaults`.  Each flag's value is valid exactly when the
  /// same `key=value` is valid in from_string(), with the same error.
  static SolverConfig from_cli(const util::Cli& cli,
                               const SolverConfig& defaults);
  static SolverConfig from_cli(const util::Cli& cli);
  /// Flag names from_cli consumes — append to a driver's allowed list.
  static std::vector<std::string> cli_flags();

  [[nodiscard]] core::PcgOptions pcg_options() const;

  friend bool operator==(const SolverConfig& a, const SolverConfig& b);
  friend bool operator!=(const SolverConfig& a, const SolverConfig& b) {
    return !(a == b);
  }
};

[[nodiscard]] std::string to_string(Ordering o);
[[nodiscard]] std::string to_string(core::StopRule s);

}  // namespace mstep::solver
