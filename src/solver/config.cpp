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
/// of the two requests wins, whichever came first.  A negative count still
/// throws; a negative `threads` is left for validate() to reject.
void merge_shards_alias(int shards, ExecutionConfig& execution) {
  if (shards < 0) {
    throw std::invalid_argument(
        "SolverConfig: shards must be >= 0 (an alias of threads)");
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

}  // namespace

std::string to_string(Ordering o) {
  return o == Ordering::kNatural ? "natural" : "multicolor";
}

std::string to_string(MatrixFormat f) {
  switch (f) {
    case MatrixFormat::kCsr: return "csr";
    case MatrixFormat::kDia: return "dia";
    case MatrixFormat::kSell: return "sell";
    default: return "auto";
  }
}

MatrixFormat matrix_format_from_string(const std::string& text) {
  return parse_format(text);
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
  if (execution.threads < 0) {
    throw std::invalid_argument(
        "SolverConfig: threads must be >= 0 (0 = serial)");
  }
  if (batch < 0) {
    throw std::invalid_argument(
        "SolverConfig: batch must be >= 0 (0 = auto, 1 = sequential)");
  }
}

std::string SolverConfig::to_string() const {
  std::string out =
      "splitting=" + util::spec_string(splitting, splitting_options) +
      ";m=" + std::to_string(steps) + ";params=" + params +
      ";ordering=" + solver::to_string(ordering) +
      ";format=" + solver::to_string(format) +
      ";stop=" + solver::to_string(stop_rule) +
      ";tol=" + util::format_double(tolerance) +
      ";maxit=" + std::to_string(max_iterations);
  if (execution.parallel()) {
    out += ";threads=" + std::to_string(execution.threads);
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
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
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
      throw std::invalid_argument("SolverConfig: unknown field '" + key +
                                  "'");
    }
  }
  merge_shards_alias(shards, cfg.execution);
  cfg.validate();
  return cfg;
}

SolverConfig SolverConfig::from_cli(const util::Cli& cli,
                                    const SolverConfig& defaults) {
  SolverConfig cfg = defaults;
  if (cli.has("splitting")) {
    cfg.splitting.clear();
    cfg.splitting_options.clear();
    util::parse_spec(cli.get("splitting", ""), "SolverConfig: splitting",
                     &cfg.splitting, &cfg.splitting_options);
  }
  if (cli.has("m")) cfg.steps = cli.get_int("m", cfg.steps);
  if (cli.has("params")) cfg.params = cli.get("params", cfg.params);
  if (cli.has("ordering")) {
    cfg.ordering = parse_ordering(cli.get("ordering", ""));
  }
  if (cli.has("format")) cfg.format = parse_format(cli.get("format", ""));
  if (cli.has("stop")) cfg.stop_rule = parse_stop(cli.get("stop", ""));
  if (cli.has("tol")) cfg.tolerance = cli.get_double("tol", cfg.tolerance);
  if (cli.has("maxit")) {
    cfg.max_iterations = cli.get_int("maxit", cfg.max_iterations);
  }
  if (cli.has("threads")) {
    cfg.execution.threads = cli.get_int("threads", cfg.execution.threads);
  }
  if (cli.has("shards")) {
    merge_shards_alias(cli.get_int("shards", 0), cfg.execution);
  }
  if (cli.has("batch")) cfg.batch = cli.get_int("batch", cfg.batch);
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
         a.format == b.format && a.stop_rule == b.stop_rule &&
         a.tolerance == b.tolerance &&
         a.max_iterations == b.max_iterations &&
         a.record_history == b.record_history &&
         a.execution == b.execution && a.batch == b.batch && iv_equal;
}

}  // namespace mstep::solver
