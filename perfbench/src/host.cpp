#include "host.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "la/simd.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Cache size in bytes of the given level from sysfs (cpu0), 0 if unknown.
long long cache_bytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_in(dir + "level");
    int l = 0;
    if (!(level_in >> l)) break;
    std::ifstream type_in(dir + "type");
    std::string type;
    type_in >> type;
    if (l != level || type == "Instruction") continue;
    std::ifstream size_in(dir + "size");
    long long value = 0;
    std::string suffix;
    if (!(size_in >> value)) return 0;
    if (size_in >> suffix) {
      if (suffix == "K") value <<= 10;
      if (suffix == "M") value <<= 20;
    }
    return value;
  }
  return 0;
}

}  // namespace

std::string host_block(const std::string& workload,
                       std::size_t working_set_bytes, bool traced) {
  const long long l3 = cache_bytes(3);
  mstep::util::Json host = mstep::util::Json::object();
  host.set("workload", workload)
      .set("nproc", static_cast<long long>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .set("simd_isa", mstep::la::simd::simd_isa())
      .set("cpu_model", cpu_model())
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("MSTEP_SIMD", env_or("MSTEP_SIMD", "(unset)"))
      .set("MSTEP_TRACE", env_or("MSTEP_TRACE", "(unset)"))
      .set("library_tracing", mstep::obs::Tracer::instance().enabled())
      .set("benchmark_trace", traced)
      .set("l2_bytes", cache_bytes(2))
      .set("l3_bytes", l3)
      .set("working_set_bytes", static_cast<long long>(working_set_bytes))
      .set("gbps_basis",
           l3 > 0 && static_cast<long long>(working_set_bytes) <= l3
               ? "computed bytes / measured s; L3-resident working set, so "
                 "cache bandwidth, not DRAM"
               : "computed bytes / measured s");
  std::string line = host.dump_string(0);
  line.pop_back();  // dump_string ends with a newline
  return "host " + line;
}

}  // namespace perfbench
