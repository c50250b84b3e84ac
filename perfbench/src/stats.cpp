#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/json_writer.hpp"
#include "util/spec.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = std::min(n - 1, rank == 0 ? 0 : rank - 1);
  if (n - 1 - index < kTailSamples) return std::nullopt;
  return samples[index];
}

double upper_quartile(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("quartile of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Position (n + 1) * 3/4, 1-based, clamped to the sample range.
  const double pos = std::min(static_cast<double>(n),
                              std::max(1.0, 0.75 * static_cast<double>(n + 1)));
  const auto lo = static_cast<std::size_t>(std::floor(pos)) - 1;
  const double frac = pos - std::floor(pos);
  return lo + 1 < n ? samples[lo] + frac * (samples[lo + 1] - samples[lo])
                    : samples[lo];
}

double peak_rss_mb() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : entries_) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string result_line(const Outcome& outcome, const Metrics& metrics) {
  using mstep::util::Json;
  std::string out = "{\"correct\": ";
  out += outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    // A non-finite value cannot be printed as a JSON number; report it as
    // 0 so the run is visibly broken rather than unparseable.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    // Counts print as integers, everything else with all its digits.
    const bool integral = v == std::floor(v) && std::fabs(v) < 1e15;
    out += "\"" + Json::escape(m.name) + "\": {\"value\": " +
           (integral ? std::to_string(static_cast<long long>(v))
                     : mstep::util::format_double(v)) +
           ", \"unit\": \"" + Json::escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
