// The host and provenance block printed with every result.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

/// One-line JSON object: nproc, SIMD ISA, CPU model, build type, the
/// MSTEP_SIMD / MSTEP_TRACE environment, L2/L3 sizes, and the workload's
/// computed working set.  Every `*_gbps` metric is computed bytes over
/// measured time; when the working set fits in L3 it is cache bandwidth,
/// not DRAM bandwidth, and the block says which.
[[nodiscard]] std::string host_block(const std::string& workload,
                                     std::size_t working_set_bytes,
                                     bool traced);

}  // namespace perfbench
