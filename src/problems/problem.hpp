// The synthetic problem catalog: registry-driven SPD test systems.
//
// A problem is everything a solve needs — the SPD matrix, a right-hand
// side, the known discrete solution when the generator manufactured one,
// and optional closed-form colour classes — parsed from a spec string
// like "poisson3d:n=32" that round-trips exactly like a SolverConfig.
// The ProblemRegistry mirrors SplittingRegistry: a generator registered
// here is immediately reachable from the mstep_solve driver, the catalog
// bench, and the tests, with option-key and range validation at parse
// time.  Built-ins (see catalog.cpp): poisson2d, poisson3d, aniso2d,
// convdiff, randspd, stencil9, femplate, cyberplate.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "la/csr_matrix.hpp"
#include "la/vector.hpp"
#include "util/spec.hpp"

namespace mstep::problems {

/// Numeric options of a problem spec, e.g. {"n", 32}.
using ProblemOptions = util::SpecOptions;

/// Parsed "name:key=value:..." spec; to_string()/from_string round-trip
/// exactly (same grammar and shortest round-trip numbers as the
/// SolverConfig splitting field).
struct ProblemSpec {
  std::string name;
  ProblemOptions options;

  [[nodiscard]] std::string to_string() const {
    return util::spec_string(name, options);
  }
  static ProblemSpec from_string(const std::string& text);

  friend bool operator==(const ProblemSpec& a, const ProblemSpec& b) {
    return a.name == b.name && a.options == b.options;
  }
  friend bool operator!=(const ProblemSpec& a, const ProblemSpec& b) {
    return !(a == b);
  }
};

/// A generated linear system K u = b with its provenance.
struct Problem {
  /// The spec it was generated from, defaults filled in — printing it
  /// reproduces the problem exactly.
  ProblemSpec spec;
  std::string description;  // one human-readable line for reports
  la::CsrMatrix matrix;     // SPD
  Vec rhs;
  /// The known discrete solution (b = K u_exact by construction); empty
  /// when the generator has none (e.g. the physical FEM load).
  Vec exact_solution;
  /// Closed-form colour classes when the generator knows them (plate:
  /// six colours, 5-point grid: red/black); empty means the solver
  /// colours the matrix graph greedily.
  color::ColorClasses classes;

  [[nodiscard]] bool has_exact() const { return !exact_solution.empty(); }
  [[nodiscard]] bool has_classes() const {
    return !classes.classes.empty();
  }
};

/// String-keyed registry of problem generators, mirroring
/// SplittingRegistry: option keys are validated at spec-parse time, and
/// a generator is reachable from every driver the moment it is added.
class ProblemRegistry {
 public:
  struct Entry {
    /// Build the problem; throws std::invalid_argument on bad options
    /// (e.g. the convdiff SPD guard).
    std::function<Problem(const ProblemOptions&)> factory;
    /// Option keys the factory accepts; anything else is rejected early.
    std::vector<std::string> option_keys;
    /// One-line description for --list output and reports.
    std::string description;
    /// Optional option-range validation run from check_options, i.e.
    /// before any matrix is built.
    std::function<void(const ProblemOptions&)> validate_options;
  };

  /// The process-wide registry, pre-populated with the built-ins.
  static ProblemRegistry& instance();

  void add(const std::string& name, Entry entry);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const Entry& at(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Validate that `options` only uses keys the named generator accepts
  /// and pass the entry's own range checks.
  void check_options(const std::string& name,
                     const ProblemOptions& options) const;

  [[nodiscard]] Problem create(const ProblemSpec& spec) const;
  [[nodiscard]] Problem create(const std::string& spec_string) const;

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace mstep::problems
