#include "util/spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace mstep::util {

std::string format_double(double v) {
  // The fewest significant digits that parse back exactly (%.17g always
  // does).  strtod, not std::stod: stod throws out_of_range on ERANGE,
  // which a subnormal value (e.g. a final_delta_inf of 1e-320) triggers.
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  // Fewest digits is not yet shortest: %g writes an exponent once the
  // decimal exponent x reaches the precision, so 80 first round-trips as
  // "8e+01".  Spelling every integer digit (%.{x+1}g, plain notation)
  // can be shorter; keep it when it is, and when it parses back exactly.
  const char* e = std::strchr(buf, 'e');
  const int x = e != nullptr ? std::atoi(e + 1) : -1;
  if (x >= 0 && x < 17) {
    char plain[40];
    std::snprintf(plain, sizeof(plain), "%.*g", x + 1, v);
    if (std::strlen(plain) < std::strlen(buf) &&
        std::strtod(plain, nullptr) == v) {
      return plain;
    }
  }
  return buf;
}

double parse_double(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  // Underflow to a subnormal (ERANGE with a finite result) is accepted;
  // a syntax error or overflow to infinity is not.
  if (end != text.c_str() + text.size() || end == text.c_str() ||
      !std::isfinite(v)) {
    throw std::invalid_argument(what + ": bad value '" + text + "'");
  }
  return v;
}

int parse_int(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(what + ": bad value '" + text + "'");
  }
}

void parse_spec(const std::string& text, const std::string& what,
                std::string* name, SpecOptions* options) {
  std::stringstream ss(text);
  std::string piece;
  bool first = true;
  while (std::getline(ss, piece, ':')) {
    if (first) {
      *name = piece;
      first = false;
      continue;
    }
    const auto eq = piece.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(what + ": option must be key=value, got '" +
                                  piece + "'");
    }
    (*options)[piece.substr(0, eq)] =
        parse_double(piece.substr(eq + 1), what + ": option " + piece);
  }
  if (name->empty()) {
    throw std::invalid_argument(what + ": empty spec");
  }
}

std::string spec_string(const std::string& name, const SpecOptions& options) {
  std::string out = name;
  for (const auto& [key, value] : options) {
    out += ':' + key + '=' + format_double(value);
  }
  return out;
}

}  // namespace mstep::util
