// The "name:key=value:key=value" spec grammar and the shortest
// round-trip double formatting behind it.
//
// One grammar describes every runtime-selectable component: a splitting
// ("ssor:omega=1.2" in SolverConfig) and a catalog problem
// ("poisson3d:n=32" in the ProblemRegistry) parse and print through the
// same functions, so a spec that appears in a log line, a config string,
// or a CLI flag round-trips exactly everywhere.
#pragma once

#include <map>
#include <string>

namespace mstep::util {

/// Numeric options attached to a spec, e.g. {"omega", 1.2}.
using SpecOptions = std::map<std::string, double>;

/// Shortest %g spelling that parses back to exactly `v` (80 is "80",
/// 1e-6 is "1e-06", 1/3 is "0.3333333333333333") —
/// the formatting used by config strings, spec strings, the Matrix
/// Market writer, and the JSON reports, so every serialized number
/// round-trips bit-exactly.
[[nodiscard]] std::string format_double(double v);

/// Strict double parse (whole string must be consumed); `what` prefixes
/// the std::invalid_argument diagnostic.
[[nodiscard]] double parse_double(const std::string& text,
                                  const std::string& what);

/// Strict int parse; `what` prefixes the diagnostic.
[[nodiscard]] int parse_int(const std::string& text, const std::string& what);

/// Parse "name[:key=value]*" into name + options.  Throws
/// std::invalid_argument (prefixed by `what`) on an empty name or a
/// malformed option.
void parse_spec(const std::string& text, const std::string& what,
                std::string* name, SpecOptions* options);

/// Inverse of parse_spec: "name:key=value:..." with the options in map
/// (lexicographic) order and shortest round-trip values.
[[nodiscard]] std::string spec_string(const std::string& name,
                                      const SpecOptions& options);

}  // namespace mstep::util
