#include "solver/config.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/spec.hpp"

namespace mstep::solver {

namespace {

Ordering parse_ordering(const std::string& text) {
  if (text == "natural") return Ordering::kNatural;
  if (text == "multicolor") return Ordering::kMulticolor;
  throw std::invalid_argument(
      "SolverConfig: ordering must be 'natural' or 'multicolor', got '" +
      text + "'");
}

MatrixFormat parse_format(const std::string& text) {
  if (text == "csr") return MatrixFormat::kCsr;
  if (text == "dia") return MatrixFormat::kDia;
  if (text == "sell") return MatrixFormat::kSell;
  if (text == "auto") return MatrixFormat::kAuto;
  throw std::invalid_argument(
      "SolverConfig: format must be 'csr', 'dia', 'sell', or 'auto', got '" +
      text + "'");
}

/// `shards=N` is an alias of `threads=N` (one strip per thread): the wider
/// of the two requests wins, whichever came first.  Kept because
/// perfbench/'s configs still spell it.  A count outside
/// [0, kMaxThreads] still throws; a bad `threads` is left for validate().
void merge_shards_alias(int shards, ExecutionConfig& execution) {
  if (shards < 0 || shards > kMaxThreads) {
    throw std::invalid_argument("SolverConfig: shards must be in [0, " +
                                std::to_string(kMaxThreads) +
                                "] (an alias of threads)");
  }
  if (execution.threads >= 0) {
    execution.threads = std::max(execution.threads, shards);
  }
}

core::StopRule parse_stop(const std::string& text) {
  if (text == "delta_inf") return core::StopRule::kDeltaInf;
  if (text == "residual2") return core::StopRule::kResidual2;
  throw std::invalid_argument(
      "SolverConfig: stop must be 'delta_inf' or 'residual2', got '" + text +
      "'");
}

/// The one per-key parser behind from_string() and from_cli(): `key`
/// names a config field (a string-form key or a CLI flag without "--"),
/// `value` is its text.  A `shards` value lands in `shards`, for the
/// caller to merge once every field is read.
void set_field(SolverConfig& cfg, const std::string& key,
               const std::string& value, int& shards) {
  if (key == "splitting") {
    cfg.splitting.clear();
    cfg.splitting_options.clear();
    util::parse_spec(value, "SolverConfig: splitting", &cfg.splitting,
                     &cfg.splitting_options);
  } else if (key == "m") {
    cfg.steps = util::parse_int(value, "SolverConfig: m");
  } else if (key == "params") {
    cfg.params = value;
  } else if (key == "ordering") {
    cfg.ordering = parse_ordering(value);
  } else if (key == "format") {
    cfg.format = parse_format(value);
  } else if (key == "stop") {
    cfg.stop_rule = parse_stop(value);
  } else if (key == "tol") {
    cfg.tolerance = util::parse_double(value, "SolverConfig: tol");
  } else if (key == "maxit") {
    cfg.max_iterations = util::parse_int(value, "SolverConfig: maxit");
  } else if (key == "threads") {
    cfg.execution.threads = util::parse_int(value, "SolverConfig: threads");
  } else if (key == "shards") {
    shards = util::parse_int(value, "SolverConfig: shards");
  } else if (key == "batch") {
    cfg.batch = util::parse_int(value, "SolverConfig: batch");
  } else if (key == "history") {
    cfg.record_history = util::parse_int(value, "SolverConfig: history") != 0;
  } else if (key == "interval") {
    const auto comma = value.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument(
          "SolverConfig: interval must be 'lo,hi', got '" + value + "'");
    }
    cfg.interval = core::SpectrumInterval{
        util::parse_double(value.substr(0, comma), "SolverConfig: interval"),
        util::parse_double(value.substr(comma + 1), "SolverConfig: interval")};
  } else {
    throw std::invalid_argument("SolverConfig: unknown field '" + key + "'");
  }
}

}  // namespace

std::string to_string(Ordering o) {
  return o == Ordering::kNatural ? "natural" : "multicolor";
}

std::string to_string(core::StopRule s) {
  return s == core::StopRule::kDeltaInf ? "delta_inf" : "residual2";
}

void SolverConfig::validate() const {
  auto& splittings = SplittingRegistry::instance();
  // at() throws with the known names listed when the key is unregistered;
  // check_options also runs the entry's own range checks (SSOR omega).
  (void)splittings.at(splitting);
  splittings.check_options(splitting, splitting_options);
  if (steps < 0) {
    throw std::invalid_argument("SolverConfig: steps (m) must be >= 0");
  }
  if (steps > 0 && !ParamStrategyRegistry::instance().contains(params)) {
    // alphas() throws with the known names listed.
    (void)ParamStrategyRegistry::instance().alphas(params, 1, {});
  }
  if (!(tolerance > 0.0)) {
    throw std::invalid_argument("SolverConfig: tolerance must be positive");
  }
  if (max_iterations <= 0) {
    throw std::invalid_argument(
        "SolverConfig: max_iterations must be positive");
  }
  if (interval && !(interval->lambda_min < interval->lambda_max)) {
    throw std::invalid_argument(
        "SolverConfig: interval needs lambda_min < lambda_max");
  }
  if (execution.threads < 0 || execution.threads > kMaxThreads) {
    throw std::invalid_argument("SolverConfig: threads must be in [0, " +
                                std::to_string(kMaxThreads) +
                                "] (0 = serial)");
  }
  if (batch < 0 || batch > kMaxThreads) {
    throw std::invalid_argument("SolverConfig: batch must be in [0, " +
                                std::to_string(kMaxThreads) +
                                "] (0 = auto, 1 = sequential)");
  }
}

std::string SolverConfig::to_string() const {
  std::string out =
      "splitting=" + util::spec_string(splitting, splitting_options) +
      ";m=" + std::to_string(steps) + ";params=" + params +
      ";ordering=" + solver::to_string(ordering) +
      ";stop=" + solver::to_string(stop_rule) +
      ";tol=" + util::format_double(tolerance) +
      ";maxit=" + std::to_string(max_iterations);
  if (execution.resolve() >= 2) {
    out += ";threads=" + std::to_string(execution.resolve());
  }
  if (batch > 0) out += ";batch=" + std::to_string(batch);
  if (record_history) out += ";history=1";
  if (interval) {
    out += ";interval=" + util::format_double(interval->lambda_min) + ',' +
           util::format_double(interval->lambda_max);
  }
  return out;
}

SolverConfig SolverConfig::from_string(const std::string& text) {
  SolverConfig cfg;
  int shards = 0;  // the threads alias, merged once every field is read
  std::stringstream ss(text);
  std::string field;
  while (std::getline(ss, field, ';')) {
    if (field.empty()) continue;
    const auto eq = field.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(
          "SolverConfig: expected key=value, got '" + field + "'");
    }
    set_field(cfg, field.substr(0, eq), field.substr(eq + 1), shards);
  }
  merge_shards_alias(shards, cfg.execution);
  cfg.validate();
  return cfg;
}

SolverConfig SolverConfig::from_cli(const util::Cli& cli,
                                    const SolverConfig& defaults) {
  SolverConfig cfg = defaults;
  int shards = 0;
  for (const std::string& key : cli_flags()) {
    if (cli.has(key)) set_field(cfg, key, cli.get(key, ""), shards);
  }
  merge_shards_alias(shards, cfg.execution);
  cfg.validate();
  return cfg;
}

SolverConfig SolverConfig::from_cli(const util::Cli& cli) {
  return from_cli(cli, SolverConfig{});
}

std::vector<std::string> SolverConfig::cli_flags() {
  return {"splitting", "m",   "params", "ordering", "format", "stop",
          "tol",       "maxit", "threads", "shards",   "batch"};
}

core::PcgOptions SolverConfig::pcg_options() const {
  core::PcgOptions opt;
  opt.max_iterations = max_iterations;
  opt.tolerance = tolerance;
  opt.stop_rule = stop_rule;
  opt.record_history = record_history;
  return opt;
}

bool operator==(const SolverConfig& a, const SolverConfig& b) {
  const bool iv_equal =
      a.interval.has_value() == b.interval.has_value() &&
      (!a.interval || (a.interval->lambda_min == b.interval->lambda_min &&
                       a.interval->lambda_max == b.interval->lambda_max));
  return a.splitting == b.splitting &&
         a.splitting_options == b.splitting_options && a.steps == b.steps &&
         a.params == b.params && a.ordering == b.ordering &&
         a.stop_rule == b.stop_rule && a.tolerance == b.tolerance &&
         a.max_iterations == b.max_iterations &&
         a.record_history == b.record_history &&
         a.execution == b.execution && a.batch == b.batch && iv_equal;
}

}  // namespace mstep::solver
