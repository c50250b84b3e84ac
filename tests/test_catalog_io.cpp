// The problem catalog and the mstep_solve driver core.
//
// The ISSUE-level guarantee: every registered catalog problem solves to
// tolerance with every registered splitting through the driver
// (problems::run — exactly what tools/mstep_solve.cpp wraps), and the
// serial run is bitwise identical to the --threads=4 --batch=4 run.
// Plus: spec round-trip, option validation, the convdiff SPD guard,
// Matrix Market input through the driver, and the JSON report schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "problems/driver.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"

namespace mstep::problems {
namespace {

/// Test-sized spec per registered problem.  CoversEveryRegisteredProblem
/// fails when a new generator is registered without a row here — add one
/// and it is automatically swept by every test below.
const std::map<std::string, std::string>& small_specs() {
  static const std::map<std::string, std::string> specs = {
      {"poisson2d", "poisson2d:n=9"},
      {"poisson3d", "poisson3d:n=5"},
      {"aniso2d", "aniso2d:n=9:ratio=50"},
      {"convdiff", "convdiff:n=9:peclet=5"},
      {"randspd", "randspd:n=150:band=5"},
      {"stencil9", "stencil9:n=9"},
      {"femplate", "femplate:a=8"},
      {"cyberplate", "cyberplate:a=8"},
  };
  return specs;
}

TEST(ProblemCatalog, CoversEveryRegisteredProblem) {
  const auto names = ProblemRegistry::instance().names();
  EXPECT_EQ(names.size(), small_specs().size());
  for (const auto& name : names) {
    EXPECT_TRUE(small_specs().count(name))
        << "problem '" << name << "' has no test spec; add one";
  }
}

// ---- spec round-trip --------------------------------------------------------

TEST(ProblemSpec, RoundTripsExactly) {
  const ProblemSpec spec =
      ProblemSpec::from_string("aniso2d:n=16:ratio=12.5");
  EXPECT_EQ(spec.name, "aniso2d");
  EXPECT_EQ(spec.options.at("ratio"), 12.5);
  EXPECT_EQ(spec.to_string(), "aniso2d:n=16:ratio=12.5");
  EXPECT_EQ(ProblemSpec::from_string(spec.to_string()), spec);

  // A generated problem's resolved spec reproduces the identical system.
  for (const auto& [name, text] : small_specs()) {
    const Problem p = ProblemRegistry::instance().create(text);
    EXPECT_EQ(p.spec.name, name);
    const Problem again = ProblemRegistry::instance().create(
        ProblemSpec::from_string(p.spec.to_string()));
    EXPECT_EQ(p.matrix.values(), again.matrix.values()) << name;
    EXPECT_EQ(p.rhs, again.rhs) << name;
  }
}

TEST(ProblemSpec, BadSpecsThrow) {
  EXPECT_THROW((void)ProblemSpec::from_string(""), std::invalid_argument);
  EXPECT_THROW((void)ProblemSpec::from_string(":n=3"), std::invalid_argument);
  EXPECT_THROW((void)ProblemSpec::from_string("poisson2d:n"),
               std::invalid_argument);
  EXPECT_THROW((void)ProblemSpec::from_string("poisson2d:n=abc"),
               std::invalid_argument);
  auto& reg = ProblemRegistry::instance();
  EXPECT_THROW((void)reg.create("nope:n=3"), std::invalid_argument);
  EXPECT_THROW((void)reg.create("poisson2d:bogus=3"), std::invalid_argument);
  EXPECT_THROW((void)reg.create("poisson2d:n=2.5"), std::invalid_argument);
  EXPECT_THROW((void)reg.create("poisson2d:n=0"), std::invalid_argument);
}

// ---- generator properties ---------------------------------------------------

TEST(ProblemCatalog, GeneratedSystemsAreSymmetricWithConsistentMetadata) {
  for (const auto& [name, text] : small_specs()) {
    const Problem p = ProblemRegistry::instance().create(text);
    EXPECT_EQ(p.matrix.rows(), p.matrix.cols()) << name;
    // The FEM plates carry assembly-order roundoff (~1e-16); the stencil
    // generators are exactly symmetric.
    EXPECT_LE(p.matrix.symmetry_error(), 1e-14) << name;
    EXPECT_EQ(p.rhs.size(), static_cast<std::size_t>(p.matrix.rows()))
        << name;
    if (p.has_exact()) {
      // b = K u* by construction.
      Vec b(p.rhs.size());
      p.matrix.multiply(p.exact_solution, b);
      EXPECT_EQ(b, p.rhs) << name;
    }
    if (p.has_classes()) {
      EXPECT_TRUE(color::coloring_is_valid(p.matrix, p.classes)) << name;
      EXPECT_EQ(p.classes.total_equations(), p.matrix.rows()) << name;
    }
  }
}

TEST(ProblemCatalog, ConvdiffSpdGuardRejectsHighCellPeclet) {
  auto& reg = ProblemRegistry::instance();
  // Cell Peclet = peclet / (2 (n+1)); n = 9 -> threshold at 20.
  EXPECT_NO_THROW((void)reg.create("convdiff:n=9:peclet=19"));
  try {
    (void)reg.create("convdiff:n=9:peclet=100");
    FAIL() << "expected the SPD guard to reject";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not SPD"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("cell Peclet"), std::string::npos);
  }
  // The guard also runs at option-validation time, before any build.
  EXPECT_THROW(reg.check_options(
                   "convdiff", ProblemOptions{{"n", 9.0}, {"peclet", 100.0}}),
               std::invalid_argument);
}

// ---- the ISSUE-level guarantee ----------------------------------------------

void expect_bitwise_equal(const solver::SolveReport& a,
                          const solver::SolveReport& b,
                          const std::string& what) {
  ASSERT_EQ(a.iterations(), b.iterations()) << what;
  ASSERT_EQ(a.result.final_delta_inf, b.result.final_delta_inf) << what;
  ASSERT_EQ(a.solution.size(), b.solution.size()) << what;
  for (std::size_t i = 0; i < a.solution.size(); ++i) {
    ASSERT_EQ(a.solution[i], b.solution[i]) << what << " i=" << i;
  }
}

// Every catalog problem x every registered splitting, through the same
// driver core the mstep_solve CLI wraps: solves to tolerance, the known
// solution is recovered, and the serial run is bitwise identical to the
// threads=4 batch=4 run.
TEST(CatalogDriver, EveryProblemEverySplittingSerialAndBatchedBitwise) {
  constexpr double kTol = 1e-10;
  for (const auto& [name, text] : small_specs()) {
    for (const auto& splitting :
         solver::SplittingRegistry::instance().names()) {
      const std::string what = text + " / " + splitting;

      DriverInput input;
      input.problem = text;
      input.nrhs = 3;

      solver::SolverConfig serial_cfg;
      serial_cfg.splitting = splitting;
      serial_cfg.steps = 2;
      serial_cfg.tolerance = kTol;

      auto parallel_cfg = serial_cfg;
      parallel_cfg.execution.threads = 4;
      parallel_cfg.batch = 4;

      const DriverResult serial = run(input, serial_cfg);
      const DriverResult parallel = run(input, parallel_cfg);

      ASSERT_TRUE(serial.all_converged()) << what;
      ASSERT_TRUE(parallel.all_converged()) << what;
      if (serial.has_exact) {
        EXPECT_LT(serial.error_vs_exact, 1e-6) << what;
      }
      ASSERT_EQ(serial.batch.size(), 3u) << what;
      for (std::size_t i = 0; i < serial.batch.size(); ++i) {
        expect_bitwise_equal(serial.batch.reports[i],
                             parallel.batch.reports[i],
                             what + " rhs=" + std::to_string(i));
      }
    }
  }
}

// ---- Matrix Market input through the driver ---------------------------------

TEST(CatalogDriver, FileInputSolvesWithManufacturedOnesSolution) {
  DriverInput input;
  input.matrix_path = std::string(MSTEP_TEST_DATA_DIR) +
                      "/spd_band_symmetric.mtx";
  solver::SolverConfig cfg;
  cfg.splitting = "jacobi";
  cfg.steps = 2;
  cfg.tolerance = 1e-12;

  const DriverResult r = run(input, cfg);
  EXPECT_EQ(r.source, "file");
  EXPECT_TRUE(r.all_converged());
  ASSERT_TRUE(r.has_exact);  // b = K*1 makes all-ones the known solution
  EXPECT_LT(r.error_vs_exact, 1e-8);
  EXPECT_EQ(r.bandwidth, 2);
  EXPECT_FALSE(r.used_classes);  // greedy colouring path
}

TEST(CatalogDriver, InputValidationThrows) {
  solver::SolverConfig cfg;
  EXPECT_THROW((void)run(DriverInput{}, cfg), std::invalid_argument);
  DriverInput both;
  both.problem = "poisson2d:n=4";
  both.matrix_path = "x.mtx";
  EXPECT_THROW((void)run(both, cfg), std::invalid_argument);
  DriverInput rhs_only;
  rhs_only.problem = "poisson2d:n=4";
  rhs_only.rhs_path = "b.mtx";
  EXPECT_THROW((void)run(rhs_only, cfg), std::invalid_argument);
  DriverInput bad_nrhs;
  bad_nrhs.problem = "poisson2d:n=4";
  bad_nrhs.nrhs = 0;
  EXPECT_THROW((void)run(bad_nrhs, cfg), std::invalid_argument);
}

// ---- report schema ----------------------------------------------------------

TEST(CatalogDriver, ReportJsonCarriesTheSchemaFields) {
  DriverInput input;
  input.problem = "stencil9:n=6";
  input.nrhs = 2;
  solver::SolverConfig cfg;
  cfg.steps = 2;
  cfg.tolerance = 1e-9;
  const DriverResult r = run(input, cfg);
  const std::string json = report_json(r).dump_string();

  for (const char* field :
       {"\"tool\": \"mstep_solve\"", "\"source\": \"catalog\"",
        "\"problem\": \"stencil9:nx=6:ny=6\"", "\"n\": ", "\"nnz\": ",
        "\"bandwidth\": ", "\"nonzero_diagonals\": ",
        "\"used_classes\": true", "\"config\": \"splitting=ssor",
        "\"nrhs\": 2", "\"concurrency\": ", "\"setup_seconds\": ",
        "\"wall_seconds\": ", "\"solves_per_second\": ",
        "\"converged\": true", "\"iterations\": [", "\"final_delta_inf\": [",
        "\"rhs_errors\": [", "\"error_vs_exact\": "}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in\n" << json;
  }
  // One storage: the report names no layout.
  for (const char* gone : {"format_selected", "dia_friendly"}) {
    EXPECT_EQ(json.find(gone), std::string::npos) << gone << " in\n" << json;
  }
}

// The report's `problem` echoes the resolved spec in its shortest
// round-trip spelling: a=80, not a=8e+01.
TEST(CatalogDriver, ReportEchoesIntegerOptionsPlainly) {
  DriverInput input;
  input.problem = "femplate:a=80";
  solver::SolverConfig cfg;
  cfg.steps = 1;
  const DriverResult r = run(input, cfg);
  EXPECT_EQ(r.problem_name, "femplate:a=80");
  EXPECT_NE(report_json(r).dump_string().find(
                "\"problem\": \"femplate:a=80\""),
            std::string::npos);
  input.problem = "poisson2d:n=100";
  EXPECT_EQ(resolve_problem(input).spec.to_string(),
            "poisson2d:nx=100:ny=100");
}

}  // namespace
}  // namespace mstep::problems
