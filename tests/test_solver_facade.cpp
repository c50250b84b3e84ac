// The Solver facade: config round-trip, registry coverage, pipeline
// equivalence to the hand-wired quickstart, and input validation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "solver/solver.hpp"

namespace mstep::solver {
namespace {

// ---- config strings ---------------------------------------------------------

TEST(Config, DefaultRoundTripsThroughString) {
  const SolverConfig cfg;
  const SolverConfig back = SolverConfig::from_string(cfg.to_string());
  EXPECT_EQ(cfg, back) << cfg.to_string();
}

TEST(Config, RoundTripsForEverySplittingAndStrategy) {
  for (const auto& splitting : SplittingRegistry::instance().names()) {
    for (const auto& params : ParamStrategyRegistry::instance().names()) {
      SolverConfig cfg;
      cfg.splitting = splitting;
      if (splitting == "ssor") cfg.splitting_options["omega"] = 1.3;
      if (splitting == "richardson") cfg.splitting_options["theta"] = 0.25;
      cfg.params = params;
      cfg.steps = 3;
      cfg.ordering = Ordering::kNatural;
      cfg.format = MatrixFormat::kDia;
      cfg.stop_rule = core::StopRule::kResidual2;
      cfg.tolerance = 3.5e-7;
      cfg.max_iterations = 123;
      cfg.record_history = true;
      cfg.interval = core::SpectrumInterval{0.125, 0.875};
      const SolverConfig back = SolverConfig::from_string(cfg.to_string());
      EXPECT_EQ(cfg, back) << cfg.to_string();
    }
  }
}

TEST(Config, ParsesSplittingOptionsFromSpec) {
  const auto cfg = SolverConfig::from_string(
      "splitting=ssor:omega=1.2;m=4;params=lsq");
  EXPECT_EQ(cfg.splitting, "ssor");
  ASSERT_EQ(cfg.splitting_options.count("omega"), 1u);
  EXPECT_DOUBLE_EQ(cfg.splitting_options.at("omega"), 1.2);
  EXPECT_EQ(cfg.steps, 4);
  EXPECT_EQ(cfg.params, "lsq");
}

TEST(Config, RejectsUnknownSplittingStrategyAndFields) {
  EXPECT_THROW(SolverConfig::from_string("splitting=ilu"),
               std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("params=chebyshov"),
               std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("frobnicate=1"),
               std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("splitting=jacobi:omega=1"),
               std::invalid_argument);  // jacobi takes no omega
}

TEST(Config, RejectsOutOfRangeOmegaThroughParser) {
  EXPECT_THROW(SolverConfig::from_string("splitting=ssor:omega=0"),
               std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("splitting=ssor:omega=2"),
               std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("splitting=ssor:omega=-0.5"),
               std::invalid_argument);
  EXPECT_NO_THROW(SolverConfig::from_string("splitting=ssor:omega=1.9"));
}

TEST(Config, RejectsBadScalarFields) {
  EXPECT_THROW(SolverConfig::from_string("tol=0"), std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("tol=-1e-6"),
               std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("maxit=0"), std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("m=-1"), std::invalid_argument);
  EXPECT_THROW(SolverConfig::from_string("interval=1,0.5"),
               std::invalid_argument);
}

TEST(Config, FromCliReadsTheAdvertisedFlags) {
  const char* argv[] = {"prog",       "--splitting=ssor:omega=1.2",
                        "--m=4",      "--params=lsq",
                        "--tol=1e-8", "--ordering=natural"};
  const util::Cli cli(6, argv, SolverConfig::cli_flags());
  const auto cfg = SolverConfig::from_cli(cli);
  EXPECT_EQ(cfg.splitting, "ssor");
  EXPECT_DOUBLE_EQ(cfg.splitting_options.at("omega"), 1.2);
  EXPECT_EQ(cfg.steps, 4);
  EXPECT_EQ(cfg.params, "lsq");
  EXPECT_DOUBLE_EQ(cfg.tolerance, 1e-8);
  EXPECT_EQ(cfg.ordering, Ordering::kNatural);
  // Round-trip the CLI-built config too.
  EXPECT_EQ(cfg, SolverConfig::from_string(cfg.to_string()));
}

/// What one parse produced: the config (its canonical string plus the
/// `format` alias, which to_string() omits) or the error message.
template <typename Parse>
std::string parse_outcome(Parse parse) {
  try {
    const SolverConfig cfg = parse();
    return "ok " + cfg.to_string() + " format=" + to_string(cfg.format);
  } catch (const std::invalid_argument& e) {
    return std::string("error ") + e.what();
  }
}

std::string cli_outcome(const std::string& key, const std::string& value) {
  const std::string flag = "--" + key + "=" + value;
  const char* argv[] = {"prog", flag.c_str()};
  return parse_outcome([&] {
    return SolverConfig::from_cli(util::Cli(2, argv, SolverConfig::cli_flags()));
  });
}

std::string string_outcome(const std::string& key, const std::string& value) {
  return parse_outcome(
      [&] { return SolverConfig::from_string(key + "=" + value); });
}

// Both parse forms share one per-key parser: for every CLI flag, a value is
// valid from the command line exactly when `key=value` is valid in the
// string form, it gives the same config, and a bad one fails with the same
// message.
TEST(Config, CliFlagsParseExactlyLikeConfigKeys) {
  const std::map<std::string, std::vector<std::string>> valid = {
      {"splitting", {"ssor:omega=1.2", "jacobi"}},
      {"m", {"2", "0"}},
      {"params", {"minmax"}},
      {"ordering", {"natural"}},
      {"format", {"dia", "sell", "auto"}},
      {"stop", {"residual2"}},
      {"tol", {"1e-8", "5.9"}},
      {"maxit", {"50"}},
      {"threads", {"3"}},
      {"shards", {"3"}},
      {"batch", {"5"}},
  };
  const std::vector<std::string> malformed = {"2x",  "5.9", "2junk",
                                              "inf", "nan", ""};
  for (const std::string& key : SolverConfig::cli_flags()) {
    ASSERT_EQ(valid.count(key), 1u) << "no sample value for --" << key;
    for (const std::string& v : valid.at(key)) {
      const std::string from_string = string_outcome(key, v);
      EXPECT_EQ(from_string.rfind("ok ", 0), 0u) << key << "=" << v;
      EXPECT_EQ(cli_outcome(key, v), from_string) << key << "=" << v;
    }
    std::vector<std::string> odd = malformed;
    odd.insert(odd.end(), {"-1", "100000"});
    for (const std::string& v : odd) {
      EXPECT_EQ(cli_outcome(key, v), string_outcome(key, v))
          << key << "='" << v << "'";
    }
  }
  // The integer fields reject every malformed value, and tol every one
  // that is not a finite number.
  for (const std::string key : {"m", "maxit", "threads", "shards", "batch"}) {
    for (const std::string& v : malformed) {
      EXPECT_EQ(cli_outcome(key, v).rfind("error ", 0), 0u)
          << key << "='" << v << "'";
    }
  }
  for (const std::string v : {"2x", "2junk", "inf", "nan", ""}) {
    EXPECT_EQ(cli_outcome("tol", v).rfind("error ", 0), 0u) << "tol=" << v;
  }
  EXPECT_EQ(cli_outcome("tol", "inf"),
            "error SolverConfig: tol: bad value 'inf'");
}

// threads, shards and batch size the solver's pool, so outside input may
// not ask for an unbounded one.  Checked by parsing only: no pool starts.
TEST(Config, ThreadCountsAreBounded) {
  static_assert(kMaxThreads >= 64, "threads=64 configs must stay valid");
  const std::string at = std::to_string(kMaxThreads);
  const std::string over = std::to_string(kMaxThreads + 1);
  for (const std::string key : {"threads", "shards", "batch"}) {
    EXPECT_NO_THROW((void)SolverConfig::from_string(key + "=" + at)) << key;
    EXPECT_THROW((void)SolverConfig::from_string(key + "=" + over),
                 std::invalid_argument)
        << key;
    EXPECT_THROW((void)SolverConfig::from_string(key + "=100000"),
                 std::invalid_argument)
        << key;
  }
  SolverConfig cfg;
  cfg.execution.threads = kMaxThreads + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW((void)Solver::from_config(cfg), std::invalid_argument);
}

// ---- registries -------------------------------------------------------------

TEST(Registry, EveryBuiltinSplittingConstructs) {
  const fem::PoissonProblem prob(5, 5);
  const auto k = prob.matrix();
  const auto& reg = SplittingRegistry::instance();
  const auto names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "jacobi"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "ssor"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "richardson"),
            names.end());
  for (const auto& name : names) {
    const auto s = reg.create(name, k);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->size(), k.rows()) << name;
    const auto iv = reg.at(name).default_interval(k, {});
    EXPECT_LT(iv.lambda_min, iv.lambda_max) << name;
  }
}

TEST(Registry, EveryBuiltinStrategyProducesMAlphas) {
  const auto& reg = ParamStrategyRegistry::instance();
  const auto names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "ones"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lsq"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "minmax"), names.end());
  const core::SpectrumInterval iv{0.0, 1.0};
  for (const auto& name : names) {
    for (int m = 1; m <= 5; ++m) {
      const auto a = reg.alphas(name, m, iv);
      EXPECT_EQ(static_cast<int>(a.size()), m) << name;
    }
  }
}

TEST(Registry, SsorOmegaFlowsThroughFactory) {
  const fem::PoissonProblem prob(4, 4);
  const auto k = prob.matrix();
  const auto s = SplittingRegistry::instance().create("ssor", k,
                                                      {{"omega", 1.5}});
  const auto* ssor = dynamic_cast<const split::SsorSplitting*>(s.get());
  ASSERT_NE(ssor, nullptr);
  EXPECT_DOUBLE_EQ(ssor->omega(), 1.5);
  EXPECT_THROW(
      SplittingRegistry::instance().create("ssor", k, {{"omega", 2.5}}),
      std::invalid_argument);
}

TEST(Registry, UserRegisteredStrategyIsUsableFromConfigString) {
  ParamStrategyRegistry::instance().add(
      "halves", [](int m, core::SpectrumInterval) {
        return std::vector<double>(m, 0.5);
      });
  const auto cfg = SolverConfig::from_string("params=halves;m=3");
  EXPECT_EQ(cfg.params, "halves");
  const auto a =
      ParamStrategyRegistry::instance().alphas("halves", 3, {0.0, 1.0});
  EXPECT_EQ(a, (std::vector<double>{0.5, 0.5, 0.5}));
}

// ---- the solve pipeline ------------------------------------------------------

struct Plate {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  Vec f;
  color::ColorClasses classes;
};

Plate make_plate(int nodes) {
  fem::PlateMesh mesh = fem::PlateMesh::unit_square(nodes);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{1.0, 0.3, 1.0},
                                        fem::EdgeLoad{1.0, 0.0});
  auto classes = color::six_color_classes(mesh);
  return {std::move(mesh), std::move(sys.stiffness), std::move(sys.load),
          std::move(classes)};
}

// The acceptance-criterion golden test: the facade must reproduce the
// hand-wired quickstart pipeline (mesh -> assemble -> six-colour ordering
// -> Table 1 least-squares alphas -> Algorithm 2 -> Algorithm 1)
// iteration for iteration.
TEST(Solver, GoldenQuickstartEquivalence) {
  const Plate p = make_plate(30);

  // Hand-wired pipeline, exactly as examples/quickstart.cpp had it.
  const auto cs = color::make_colored_system(p.k, p.classes);
  const Vec fc = cs.permute(p.f);
  const auto alphas = core::least_squares_alphas(4, core::ssor_interval());
  const core::MulticolorMStepSsor prec(cs, alphas);
  core::PcgOptions opt;
  opt.tolerance = 1e-6;
  const auto hand = core::pcg_solve(cs.matrix, fc, prec, opt);

  // Facade, one config line.
  SolverConfig cfg;
  cfg.splitting = "ssor";
  cfg.steps = 4;
  cfg.params = "lsq";
  cfg.ordering = Ordering::kMulticolor;
  cfg.tolerance = 1e-6;
  const auto report =
      Solver::from_config(cfg).solve(p.k, p.f, p.classes);

  ASSERT_TRUE(hand.converged);
  ASSERT_TRUE(report.converged());
  EXPECT_EQ(report.iterations(), hand.iterations);
  EXPECT_EQ(report.result.inner_products, hand.inner_products);
  EXPECT_EQ(report.alphas, alphas);
  const Vec hand_u = cs.unpermute(hand.solution);
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(report.solution[i], hand_u[i], 1e-14) << i;
  }
  EXPECT_TRUE(report.coloring.used);
  EXPECT_EQ(report.coloring.num_classes, 6);
}

TEST(Solver, DiaFormatMatchesCsrIterationForIteration) {
  const Plate p = make_plate(12);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto csr = Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  cfg.format = MatrixFormat::kDia;
  const auto dia = Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  ASSERT_TRUE(csr.converged());
  ASSERT_TRUE(dia.converged());
  EXPECT_EQ(dia.iterations(), csr.iterations());
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(dia.solution[i], csr.solution[i], 1e-12);
  }
}

TEST(Solver, GreedyMatrixColoringSolvesWithoutMeshKnowledge) {
  // No classes supplied: the facade colours the matrix graph itself.
  const Plate p = make_plate(10);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto report = Solver::from_config(cfg).solve(p.k, p.f);
  ASSERT_TRUE(report.converged());
  EXPECT_TRUE(report.coloring.used);
  EXPECT_GE(report.coloring.num_classes, 2);
  // Solution agrees with a direct natural-ordering CG solve.
  core::PcgOptions opt;
  opt.tolerance = 1e-10;
  const auto ref = core::cg_solve(p.k, p.f, opt);
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(report.solution[i], ref.solution[i], 1e-4);
  }
}

TEST(Solver, NaturalOrderingJacobiAndRichardsonRun) {
  const fem::PoissonProblem prob(8, 8);
  const auto k = prob.matrix();
  const Vec f(k.rows(), 1.0);
  for (const char* spec :
       {"splitting=jacobi;m=3;params=lsq;ordering=natural;tol=1e-8",
        "splitting=richardson:theta=0.2;m=2;params=lsq;ordering=natural;"
        "tol=1e-8"}) {
    const auto report = Solver::from_string(spec).solve(k, f);
    EXPECT_TRUE(report.converged()) << spec;
    EXPECT_EQ(static_cast<int>(report.alphas.size()), report.steps) << spec;
  }
}

TEST(Solver, ZeroStepsIsPlainCg) {
  const Plate p = make_plate(8);
  SolverConfig cfg;
  cfg.steps = 0;
  cfg.ordering = Ordering::kNatural;
  cfg.tolerance = 1e-8;
  const auto report = Solver::from_config(cfg).solve(p.k, p.f);
  const auto ref = core::cg_solve(p.k, p.f, cfg.pcg_options());
  ASSERT_TRUE(report.converged());
  EXPECT_EQ(report.iterations(), ref.iterations);
  EXPECT_EQ(report.preconditioner_name, "identity");
  EXPECT_TRUE(report.alphas.empty());
}

TEST(Solver, PreparedReusesThePipelineAcrossRightHandSides) {
  const Plate p = make_plate(10);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto solver = Solver::from_config(cfg);
  const auto prepared = solver.prepare(p.k, p.classes);
  const auto r1 = prepared.solve(p.f);
  Vec f2 = p.f;
  for (auto& v : f2) v *= 2.0;
  const auto r2 = prepared.solve(f2);
  ASSERT_TRUE(r1.converged());
  ASSERT_TRUE(r2.converged());
  // Linear system: doubled load, doubled displacement.
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(r2.solution[i], 2.0 * r1.solution[i], 1e-6);
  }
  // Warm start from the exact solution converges immediately.
  const auto warm = prepared.solve(p.f, r1.solution);
  EXPECT_LE(warm.iterations(), 2);
}

TEST(Solver, PreparedSurvivesBeingMoved) {
  // Prepared's internals point into its own heap-held coloured system and
  // DIA matrix; moving the object must not dangle them.
  const Plate p = make_plate(8);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  cfg.format = MatrixFormat::kDia;
  auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
  const auto moved = std::move(prepared);
  const auto report = moved.solve(p.f);
  EXPECT_TRUE(report.converged());
}

TEST(Solver, ReportCarriesPlannerHooks) {
  const Plate p = make_plate(8);
  SolverConfig cfg;
  cfg.steps = 3;
  cfg.tolerance = 1e-6;
  const auto report = Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  const core::StepCostModel costs{2.0, 0.5};
  EXPECT_DOUBLE_EQ(
      report.predicted_seconds(costs),
      report.iterations() * (costs.a_seconds + 3 * costs.b_seconds));
}

TEST(Solver, OmegaSweepChangesTheOperator) {
  const Plate p = make_plate(8);
  SolverConfig cfg;
  cfg.splitting_options["omega"] = 1.5;
  cfg.tolerance = 1e-8;
  const auto r15 = Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  cfg.splitting_options["omega"] = 1.0;
  const auto r10 = Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  EXPECT_TRUE(r15.converged());
  EXPECT_TRUE(r10.converged());
  // omega = 1 takes the Algorithm-2 fast path, omega != 1 the generic
  // engine; both must solve the same system.
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(r15.solution[i], r10.solution[i], 1e-4);
  }
}

// ---- pcg input validation (satellite) ---------------------------------------

TEST(PcgValidation, RejectsBadTolerancesAndLimits) {
  const fem::PoissonProblem prob(4, 4);
  const auto k = prob.matrix();
  const Vec f(k.rows(), 1.0);
  core::PcgOptions opt;
  opt.tolerance = 0.0;
  EXPECT_THROW((void)core::cg_solve(k, f, opt), std::invalid_argument);
  opt.tolerance = -1e-8;
  EXPECT_THROW((void)core::cg_solve(k, f, opt), std::invalid_argument);
  opt.tolerance = 1e-8;
  opt.max_iterations = 0;
  EXPECT_THROW((void)core::cg_solve(k, f, opt), std::invalid_argument);
  opt.max_iterations = -3;
  EXPECT_THROW((void)core::cg_solve(k, f, opt), std::invalid_argument);
}

TEST(PcgValidation, RejectsMismatchedInitialGuess) {
  const fem::PoissonProblem prob(4, 4);
  const auto k = prob.matrix();
  const Vec f(k.rows(), 1.0);
  const Vec bad(k.rows() + 1, 0.0);
  EXPECT_THROW((void)core::cg_solve(k, f, {}, nullptr, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace mstep::solver
