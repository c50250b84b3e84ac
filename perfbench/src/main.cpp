// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload plate_serial --seed 1 --seconds 10 --trace 0
//
// Prints a sample-count line, the host/provenance block, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  // End-to-end numbers are taken with the library's own tracing off, and
  // the per-layer numbers come from this benchmark's decorators, so the
  // library tracer stays off in both modes whatever MSTEP_TRACE says.
  mstep::obs::Tracer::instance().set_enabled(false);
  try {
    const perfbench::RunResult result = perfbench::run_workload(options);
    std::cout << result.notes << '\n'
              << perfbench::host_block(options.workload,
                                       static_cast<std::size_t>(
                                           result.working_set_bytes),
                                       options.trace)
              << '\n'
              << perfbench::result_line(result.outcome, result.metrics)
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
