// The benchmark's workloads: what each runs, checks and reports.
//
//   plate_serial  femplate:a=160, m=4 lsq, format=auto, serial
//   plate_par4    the same system with shards=4
//   batch16       femplate:a=80, 16 seeded right-hand sides, batch=4 lanes
//   served_mix    4 closed-loop clients against an in-process daemon
//
// An untraced run reports the end-to-end metrics; a traced run reports
// the per-layer ones (see perfbench/interaction_map.json for which
// end-to-end metric each layer metric should move, and where).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Appended to every workload solver config (a test hook: ";maxit=1"
  /// injects a failing config).
  std::string config_suffix;
  /// Overrides the plate size `a` of the solve workloads; 0 keeps it.
  int plate_a = 0;
};

struct RunResult {
  Outcome outcome;
  Metrics metrics;
  double working_set_bytes = 0.0;
  std::string notes;  // human-readable sample counts, printed before the result
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
