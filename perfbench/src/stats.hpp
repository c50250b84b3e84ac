// Sample statistics and the result document of one benchmark run.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
inline constexpr std::size_t kTailSamples = 10;

/// Median of the samples (mean of the middle two for an even count).
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank q-quantile, q in (0, 1); std::nullopt when fewer than
/// kTailSamples samples rank above it (e.g. p99 needs >= 1000 samples).
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Upper quartile, linearly interpolated between order statistics (the
/// "exclusive" method of Python's statistics.quantiles).  Throws
/// std::invalid_argument on an empty sample.
[[nodiscard]] double upper_quartile(std::vector<double> samples);

/// Peak resident set of this process so far (getrusage ru_maxrss), MiB.
[[nodiscard]] double peak_rss_mb();

/// Operations attempted and failed.  A failure is a throw, a solve that
/// did not converge, a result that differs from its reference, or a
/// non-OK served reply after retries; it is counted, never dropped.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// Share of attempted operations that succeeded (1 when none failed).
  [[nodiscard]] double ok_frac() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of one run, in insertion order.
class Metrics {
 public:
  /// Adds the metric, or replaces the one of the same name.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& entries() const { return entries_; }

 private:
  std::vector<Metric> entries_;
};

/// The one-line result object the benchmark prints last:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
[[nodiscard]] std::string result_line(const Outcome& outcome,
                                      const Metrics& metrics);

}  // namespace perfbench
