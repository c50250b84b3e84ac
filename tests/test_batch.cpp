// The batched multi-RHS engine: per-RHS bitwise identity with the serial
// solve for every registered splitting, batch width and block width, the
// error channel (one bad right-hand side never poisons the batch or its
// block), the batch/threads config round-trip, and the zero-thread-pool
// audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "fem/plane_stress.hpp"
#include "la/simd.hpp"
#include "par/execution.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::solver {
namespace {

struct Plate {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  Vec f;
  color::ColorClasses classes;
};

Plate make_plate(int nodes) {
  fem::PlateMesh mesh = fem::PlateMesh::unit_square(nodes);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                        fem::EdgeLoad{1.0, 0.0});
  auto classes = color::six_color_classes(mesh);
  return {std::move(mesh), std::move(sys.stiffness), std::move(sys.load),
          std::move(classes)};
}

std::vector<Vec> make_rhs_set(const Plate& p, int count) {
  std::vector<Vec> bs;
  bs.reserve(static_cast<std::size_t>(count));
  bs.push_back(p.f);
  util::Rng rng(7);
  for (int j = 1; j < count; ++j) {
    bs.push_back(rng.uniform_vector(p.f.size()));
  }
  return bs;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bitwise_equal(const SolveReport& serial, const SolveReport& batched,
                          const std::string& what) {
  ASSERT_TRUE(serial.converged()) << what;
  ASSERT_TRUE(batched.converged()) << what;
  ASSERT_EQ(serial.iterations(), batched.iterations()) << what;
  ASSERT_TRUE(same_bits(serial.result.final_delta_inf,
                        batched.result.final_delta_inf))
      << what;
  ASSERT_TRUE(same_bits(serial.result.final_residual2,
                        batched.result.final_residual2))
      << what;
  ASSERT_EQ(serial.result.inner_products, batched.result.inner_products)
      << what;
  ASSERT_EQ(serial.result.precond_applications,
            batched.result.precond_applications)
      << what;
  ASSERT_EQ(serial.result.history.size(), batched.result.history.size())
      << what;
  for (std::size_t k = 0; k < serial.result.history.size(); ++k) {
    ASSERT_TRUE(same_bits(serial.result.history[k].value,
                          batched.result.history[k].value))
        << what << " history k=" << k;
    ASSERT_TRUE(same_bits(serial.result.history[k].alpha,
                          batched.result.history[k].alpha))
        << what << " history k=" << k;
  }
  ASSERT_EQ(serial.solution.size(), batched.solution.size()) << what;
  for (std::size_t i = 0; i < serial.solution.size(); ++i) {
    ASSERT_TRUE(same_bits(serial.solution[i], batched.solution[i]))
        << what << " i=" << i;
  }
}

// ---- the ISSUE-level guarantee ----------------------------------------------

// For every registered splitting and batch of {1, 3, 16} right-hand sides,
// each batched result is bitwise identical to the corresponding serial
// Prepared::solve.
TEST(SolveMany, EverySplittingAndBatchWidthMatchesSerialBitwise) {
  const Plate p = make_plate(36);  // 2520 equations: above the cutoffs
  const std::vector<Vec> all_bs = make_rhs_set(p, 16);

  for (const auto& splitting : SplittingRegistry::instance().names()) {
    SolverConfig cfg;
    cfg.splitting = splitting;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;

    // Serial references, one per right-hand side.
    const auto serial = Solver::from_config(cfg).prepare(p.k, p.classes);
    std::vector<SolveReport> expected;
    for (const Vec& f : all_bs) expected.push_back(serial.solve(f));

    cfg.batch = 4;  // four concurrent lanes on the shared pool
    const auto solver = Solver::from_config(cfg);
    const auto prepared = solver.prepare(p.k, p.classes);
    for (const int width : {1, 3, 16}) {
      const std::vector<Vec> bs(all_bs.begin(), all_bs.begin() + width);
      const BatchReport br = prepared.solveMany(bs);
      ASSERT_EQ(br.size(), static_cast<std::size_t>(width));
      ASSERT_EQ(br.num_failed(), 0u);
      ASSERT_TRUE(br.all_converged());
      EXPECT_GE(br.concurrency, 1);
      EXPECT_LE(br.concurrency, 4);
      for (int i = 0; i < width; ++i) {
        expect_bitwise_equal(expected[static_cast<std::size_t>(i)],
                             br.reports[static_cast<std::size_t>(i)],
                             splitting + " width=" + std::to_string(width) +
                                 " rhs=" + std::to_string(i));
      }
    }
  }
}

// Lanes over a multi-strip Prepared: threads (or its shards alias) cut its
// Algorithm-2 sweep into four strips.  Two or more lanes run engines over
// one shared one-strip plan; a single lane runs the strips on the pool.
// Every result is bitwise the serial solve.
TEST(SolveMany, LanesOverMultiStripPreparedMatchSerialBitwise) {
  const Plate p = make_plate(36);  // 2520 equations: above the cutoffs
  const std::vector<Vec> all_bs = make_rhs_set(p, 16);

  SolverConfig base;
  base.steps = 2;
  base.tolerance = 1e-8;
  const auto serial = Solver::from_config(base).prepare(p.k, p.classes);
  std::vector<SolveReport> expected;
  for (const Vec& f : all_bs) expected.push_back(serial.solve(f));

  SolverConfig threaded = base;
  threaded.execution.threads = 4;
  threaded.batch = 4;
  const SolverConfig sharded =
      SolverConfig::from_string(base.to_string() + ";shards=4;batch=4");
  ASSERT_EQ(sharded, threaded);
  for (const SolverConfig& cfg : {threaded, sharded}) {
    const std::string what = cfg.to_string();
    const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
    ASSERT_EQ(prepared.preconditioner().name(), "multicolor-ssor-m2-s4")
        << what;
    for (const int width : {1, 3, 16}) {
      const std::vector<Vec> bs(all_bs.begin(), all_bs.begin() + width);
      const BatchReport br = prepared.solveMany(bs);
      ASSERT_EQ(br.num_failed(), 0u) << what;
      for (int i = 0; i < width; ++i) {
        const auto& report = br.reports[static_cast<std::size_t>(i)];
        expect_bitwise_equal(expected[static_cast<std::size_t>(i)], report,
                             what + " width=" + std::to_string(width) +
                                 " rhs=" + std::to_string(i));
        // Only a single lane has the pool to itself for the strips.
        ASSERT_EQ(br.concurrency, std::min(width, 4)) << what;
        ASSERT_EQ(report.shards, width == 1 ? 4 : 0) << what;
      }
    }
  }
}

TEST(SolveMany, GenericSsorOmegaAndNaturalOrderingMatchSerial) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 5);

  // omega != 1 leaves the Algorithm-2 fast path; natural ordering skips
  // the colour permutation entirely.  Both must batch bitwise.
  for (const bool natural : {false, true}) {
    SolverConfig cfg;
    cfg.splitting_options["omega"] = 1.3;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;
    if (natural) cfg.ordering = Ordering::kNatural;

    const auto serial = natural
                            ? Solver::from_config(cfg).prepare(p.k)
                            : Solver::from_config(cfg).prepare(p.k, p.classes);
    cfg.batch = 3;
    const auto batched_solver = Solver::from_config(cfg);
    const auto prepared = natural
                              ? batched_solver.prepare(p.k)
                              : batched_solver.prepare(p.k, p.classes);
    const BatchReport br = prepared.solveMany(bs);
    ASSERT_TRUE(br.all_converged());
    for (std::size_t i = 0; i < bs.size(); ++i) {
      expect_bitwise_equal(serial.solve(bs[i]), br.reports[i],
                           std::string(natural ? "natural" : "multicolor") +
                               " omega=1.3 rhs=" + std::to_string(i));
    }
  }
}

TEST(SolveMany, PlainCgBatchesBitwise) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 3);
  SolverConfig cfg;
  cfg.steps = 0;  // identity preconditioner
  cfg.ordering = Ordering::kNatural;
  cfg.tolerance = 1e-8;
  const auto serial = Solver::from_config(cfg).prepare(p.k);
  cfg.batch = 3;
  const BatchReport br =
      Solver::from_config(cfg).prepare(p.k).solveMany(bs);
  ASSERT_TRUE(br.all_converged());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    expect_bitwise_equal(serial.solve(bs[i]), br.reports[i],
                         "m=0 rhs=" + std::to_string(i));
  }
}

// ---- blocks of right-hand sides --------------------------------------------
//
// Blocks run on the serial kernels, so no size cutoff applies: a small
// plate keeps the sanitizer jobs' repeats of this suite short.

// A lane takes blocks of w = min(4, ceil(nrhs / lanes)) right-hand sides
// and solves each with one pcg_solve_block.  Every width with one lane
// (w = min(4, width)) and four lanes (mostly w = 1, w = 2 at width 5, w = 4
// at 16): each column is bitwise its own solve.
TEST(SolveManyBlocks, EveryWidthMatchesSerialBitwise) {
  const Plate p = make_plate(20);
  const std::vector<Vec> all_bs = make_rhs_set(p, 16);
  SolverConfig cfg;
  cfg.steps = 2;
  cfg.tolerance = 1e-8;
  const auto serial = Solver::from_config(cfg).prepare(p.k, p.classes);
  std::vector<SolveReport> expected;
  for (const Vec& f : all_bs) expected.push_back(serial.solve(f));

  for (const int batch : {1, 4}) {
    cfg.batch = batch;
    const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
    for (const int width : {1, 2, 3, 4, 5, 16}) {
      const std::string what = "batch=" + std::to_string(batch) +
                               " width=" + std::to_string(width);
      const std::vector<Vec> bs(all_bs.begin(), all_bs.begin() + width);
      const BatchReport br = prepared.solveMany(bs);
      ASSERT_EQ(br.num_failed(), 0u) << what;
      ASSERT_EQ(br.concurrency, std::min(width, batch)) << what;
      for (int i = 0; i < width; ++i) {
        expect_bitwise_equal(expected[static_cast<std::size_t>(i)],
                             br.reports[static_cast<std::size_t>(i)],
                             what + " rhs=" + std::to_string(i));
      }
    }
  }
}

// One block whose columns stop at different iterations — a zero
// right-hand side (0 iterations, no loop), a tiny one (stops early under
// the absolute |du|_inf rule) and random ones — under both stop rules
// with history recording, on both kernel paths.  Each frozen column keeps the bits of its stopping
// iteration.
TEST(SolveManyBlocks, ColumnsStoppingAtDifferentIterationsStayBitwise) {
  const Plate p = make_plate(20);
  std::vector<Vec> bs = make_rhs_set(p, 4);
  bs[1].assign(p.f.size(), 0.0);
  for (double& v : bs[2]) v *= 1e-6;
  for (const auto stop : {core::StopRule::kDeltaInf,
                          core::StopRule::kResidual2}) {
    for (const auto mode : {la::simd::SimdMode::kForceScalar,
                            la::simd::SimdMode::kForceVector}) {
      const la::simd::SimdModeGuard guard(mode);
      SolverConfig cfg;
      cfg.steps = 2;
      cfg.tolerance = 1e-8;
      cfg.stop_rule = stop;
      cfg.record_history = true;
      const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
      const BatchReport br = prepared.solveMany(bs);  // one lane, w = 4
      ASSERT_EQ(br.num_failed(), 0u);
      const std::string what =
          std::string(stop == core::StopRule::kDeltaInf ? "delta" : "res2") +
          (mode == la::simd::SimdMode::kForceScalar ? " scalar" : " vector");
      for (std::size_t i = 0; i < bs.size(); ++i) {
        expect_bitwise_equal(prepared.solve(bs[i]), br.reports[i],
                             what + " rhs=" + std::to_string(i));
      }
      // The block really froze its columns at different iterations.
      std::set<int> stops;
      for (const SolveReport& r : br.reports) stops.insert(r.iterations());
      EXPECT_EQ(br.reports[1].iterations(), 0) << what;
      EXPECT_GE(stops.size(), 3u) << what;
    }
  }
}

// A wrong-sized and a NaN right-hand side share a block with good ones:
// the first reports its error, the second runs to the iteration limit
// unconverged (as its own solve does), and the good columns stay bitwise.
TEST(SolveManyBlocks, BadColumnsDoNotPoisonTheirBlock) {
  const Plate p = make_plate(20);
  std::vector<Vec> bs = make_rhs_set(p, 4);
  bs[1].resize(bs[1].size() - 7);
  bs[2][5] = std::numeric_limits<double>::quiet_NaN();
  for (const auto mode : {la::simd::SimdMode::kForceScalar,
                          la::simd::SimdMode::kForceVector}) {
    const la::simd::SimdModeGuard guard(mode);
    SolverConfig cfg;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;
    cfg.max_iterations = 300;
    const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
    const BatchReport br = prepared.solveMany(bs);  // one lane, w = 4
    const std::string what =
        mode == la::simd::SimdMode::kForceScalar ? "scalar" : "vector";
    ASSERT_EQ(br.num_failed(), 1u) << what;
    EXPECT_FALSE(br.ok(1)) << what;
    ASSERT_TRUE(br.ok(2)) << what;
    // NaN payloads may differ (operand order of a NaN + NaN); NaN-ness,
    // counts and the stopping iteration may not.
    const SolveReport nan_serial = prepared.solve(bs[2]);
    const SolveReport& nan_block = br.reports[2];
    EXPECT_FALSE(nan_serial.converged()) << what;
    EXPECT_FALSE(nan_block.converged()) << what;
    EXPECT_EQ(nan_serial.iterations(), cfg.max_iterations) << what;
    EXPECT_EQ(nan_block.iterations(), cfg.max_iterations) << what;
    EXPECT_EQ(nan_serial.result.inner_products,
              nan_block.result.inner_products)
        << what;
    EXPECT_TRUE(std::isnan(nan_serial.result.final_delta_inf)) << what;
    EXPECT_TRUE(std::isnan(nan_block.result.final_delta_inf)) << what;
    EXPECT_TRUE(std::isnan(nan_block.result.final_residual2)) << what;
    expect_bitwise_equal(prepared.solve(bs[0]), br.reports[0], what);
    expect_bitwise_equal(prepared.solve(bs[3]), br.reports[3], what);
  }
}

// The block sweep walks a class's strip segments in turn, as the single
// sweep's strips do, on plans of 1-8 strips: column c of apply_block is
// bitwise apply() of column c, and both are the one-strip bits, on both
// kernel paths.
TEST(SolveManyBlocks, ApplyBlockOverStrips1To8IsApplyPerColumn) {
  constexpr std::size_t kW = la::simd::kSellSlice;
  const Plate p = make_plate(20);
  const color::ColoredSystem cs = color::make_colored_system(p.k, p.classes);
  const auto alphas = core::least_squares_alphas(3, core::ssor_interval());
  const auto n = static_cast<std::size_t>(cs.size());
  util::Rng rng(31);
  Vec r = rng.uniform_vector(n * kW, -1.0, 1.0);
  for (std::size_t i = 0; i < n; i += 11) r[i * kW + i % kW] = -0.0;
  const auto column = [&](const Vec& block, std::size_t c) {
    Vec v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = block[i * kW + c];
    return v;
  };
  for (const auto mode : {la::simd::SimdMode::kForceScalar,
                          la::simd::SimdMode::kForceVector}) {
    const la::simd::SimdModeGuard guard(mode);
    const core::MulticolorMStepSsor one(cs, alphas);
    std::vector<Vec> want(kW);
    for (std::size_t c = 0; c < kW; ++c) one.apply(column(r, c), want[c]);
    for (int strips = 1; strips <= 8; ++strips) {
      const core::MulticolorMStepSsor sweep(
          std::make_shared<const core::MulticolorSweepPlan>(cs, strips),
          alphas);
      ASSERT_EQ(sweep.plan()->num_parts(), strips);
      Vec block;
      sweep.apply_block(r, block, static_cast<int>(kW));
      for (std::size_t c = 0; c < kW; ++c) {
        Vec single;
        sweep.apply(column(r, c), single);
        const Vec got = column(block, c);
        const std::string what = "strips=" + std::to_string(strips) +
                                 " column " + std::to_string(c) + " simd=" +
                                 la::simd::simd_isa();
        ASSERT_EQ(std::memcmp(got.data(), single.data(), n * sizeof(double)),
                  0)
            << what;
        ASSERT_EQ(
            std::memcmp(got.data(), want[c].data(), n * sizeof(double)), 0)
            << what;
      }
    }
  }
}

// The block sweep's NaN repro end to end: one symmetric pair of NaN
// couplings in poisson2d:n=8 at m = 1 (see test_simd_dispatch).  Each
// column of a 4-wide solveMany block runs its iterations as its own solve
// does: same count, same inner products, NaN in the same solution entries.
// A NaN's payload past the first sweep is not compared: the iteration's
// dots add NaNs of both signs, and IEEE 754 leaves open which survives.
TEST(SolveManyBlocks, NanCouplingsRunAsTheirSerialSolve) {
  problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=8");
  for (const auto& [i, j] : {std::pair<index_t, index_t>{9, 17}, {17, 9}}) {
    const auto& rp = p.matrix.row_ptr();
    const auto& col = p.matrix.col_idx();
    const auto at = std::lower_bound(col.begin() + rp[i],
                                     col.begin() + rp[i + 1], j);
    p.matrix.values()[static_cast<std::size_t>(at - col.begin())] =
        std::numeric_limits<double>::quiet_NaN();
  }
  util::Rng rng(29);
  std::vector<Vec> bs;
  for (int c = 0; c < 4; ++c) {
    bs.push_back(rng.uniform_vector(static_cast<std::size_t>(p.matrix.rows())));
  }
  for (const auto mode : {la::simd::SimdMode::kForceScalar,
                          la::simd::SimdMode::kForceVector}) {
    const la::simd::SimdModeGuard guard(mode);
    SolverConfig cfg;
    cfg.steps = 1;
    cfg.max_iterations = 5;
    const auto prepared = Solver::from_config(cfg).prepare(p.matrix, p.classes);
    const BatchReport br = prepared.solveMany(bs);  // one lane, w = 4
    const std::string what =
        mode == la::simd::SimdMode::kForceScalar ? "scalar" : "vector";
    ASSERT_EQ(br.num_failed(), 0u) << what;
    for (std::size_t c = 0; c < bs.size(); ++c) {
      const SolveReport serial = prepared.solve(bs[c]);
      const SolveReport& block = br.reports[c];
      EXPECT_EQ(serial.converged(), block.converged()) << what << c;
      EXPECT_EQ(serial.iterations(), block.iterations()) << what << c;
      EXPECT_EQ(serial.result.inner_products, block.result.inner_products)
          << what << c;
      ASSERT_EQ(serial.solution.size(), block.solution.size()) << what << c;
      for (std::size_t k = 0; k < serial.solution.size(); ++k) {
        EXPECT_EQ(std::isnan(serial.solution[k]),
                  std::isnan(block.solution[k]))
            << what << c << " k=" << k;
      }
    }
  }
}

// ---- error channel ----------------------------------------------------------

TEST(SolveMany, ExceptionInOneRhsLeavesOtherReportsIntact) {
  const Plate p = make_plate(36);
  std::vector<Vec> bs = make_rhs_set(p, 3);
  bs[1].resize(bs[1].size() - 7);  // dimension mismatch: this RHS throws

  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  cfg.batch = 2;
  const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
  const BatchReport br = prepared.solveMany(bs);

  ASSERT_EQ(br.num_failed(), 1u);
  EXPECT_FALSE(br.ok(1));
  EXPECT_FALSE(br.all_converged());
  EXPECT_THROW(br.rethrow_first_error(), std::invalid_argument);

  // The healthy right-hand sides completed, bitwise as ever.
  SolverConfig serial_cfg;
  serial_cfg.tolerance = cfg.tolerance;
  const auto serial = Solver::from_config(serial_cfg).prepare(p.k, p.classes);
  ASSERT_TRUE(br.ok(0));
  ASSERT_TRUE(br.ok(2));
  expect_bitwise_equal(serial.solve(bs[0]), br.reports[0], "surviving rhs 0");
  expect_bitwise_equal(serial.solve(bs[2]), br.reports[2], "surviving rhs 2");
}

TEST(SolveMany, EmptyBatchReportsNothing) {
  const Plate p = make_plate(12);
  SolverConfig cfg;
  const auto prepared = Solver::from_config(cfg).prepare(p.k, p.classes);
  const BatchReport br = prepared.solveMany(std::vector<Vec>{});
  EXPECT_EQ(br.size(), 0u);
  EXPECT_TRUE(br.all_converged());
  EXPECT_EQ(br.num_failed(), 0u);
}

// The config's `batch` is the one lane knob: the lanes it asks for, never
// more than there are right-hand sides; 0 is one lane per pool thread,
// capped at the hardware width.
TEST(SolveMany, ConfiguredBatchSetsTheLanes) {
  const Plate p = make_plate(36);
  const std::vector<Vec> bs = make_rhs_set(p, 8);
  const auto lanes = [&](const std::string& text, std::size_t nrhs) {
    const auto prepared =
        Solver::from_string("tol=1e-08;" + text).prepare(p.k, p.classes);
    return prepared
        .solveMany(util::Span<const Vec>(bs.data(), nrhs))
        .concurrency;
  };
  EXPECT_EQ(lanes("batch=6", 8), 6);
  EXPECT_EQ(lanes("batch=2", 8), 2);
  EXPECT_EQ(lanes("batch=6", 3), 3);  // the RHS count caps the lanes
  EXPECT_EQ(lanes("batch=1;threads=4", 8), 1);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(lanes("threads=4", 8), hw > 0 ? std::min(4, hw) : 4);
  EXPECT_EQ(lanes("threads=0", 8), 1);  // serial: no pool, one lane
}

// ---- config plumbing --------------------------------------------------------

TEST(BatchLanes, RoundTripsThroughStringAndCli) {
  SolverConfig cfg;
  cfg.batch = 8;
  EXPECT_NE(cfg.to_string().find(";batch=8"), std::string::npos);
  EXPECT_EQ(cfg, SolverConfig::from_string(cfg.to_string()));

  const char* argv[] = {"prog", "--batch=5", "--threads=2"};
  const util::Cli cli(3, argv, SolverConfig::cli_flags());
  const auto from_cli = SolverConfig::from_cli(cli);
  EXPECT_EQ(from_cli.batch, 5);
  EXPECT_EQ(from_cli.execution.threads, 2);

  // batch=0 (the default) keeps config strings unchanged.
  EXPECT_EQ(SolverConfig{}.to_string().find("batch"), std::string::npos);
  EXPECT_THROW(SolverConfig::from_string("batch=-1"), std::invalid_argument);
}

TEST(BatchLanes, BatchOnlyConfigKeepsKernelPathSerial) {
  // threads=0;batch=4: a pool exists for the lanes, but each individual
  // solve must run the serial kernel path — bitwise AND structurally (the
  // single-solve result equals the fully serial solver's).
  const Plate p = make_plate(36);
  SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto serial = Solver::from_config(cfg);
  EXPECT_EQ(serial.execution(), nullptr);

  cfg.batch = 4;
  const auto batched = Solver::from_config(cfg);
  ASSERT_NE(batched.execution(), nullptr);
  EXPECT_EQ(batched.execution()->threads(), 4);

  const auto a = serial.solve(p.k, p.f, p.classes);
  const auto b = batched.solve(p.k, p.f, p.classes);
  expect_bitwise_equal(a, b, "threads=0;batch=4 single solve");
  EXPECT_EQ(a.preconditioner_name, b.preconditioner_name);
}

// ---- the zero-thread-pool audit ---------------------------------------------

TEST(ZeroThreadAudit, ThreadPoolRefusesNonPositiveCounts) {
  EXPECT_THROW(par::ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(par::ThreadPool(-3), std::invalid_argument);
}

TEST(ZeroThreadAudit, ResolveCollapsesZeroAndOneToSerial) {
  EXPECT_EQ(ExecutionConfig{0}.resolve(), 0);
  EXPECT_EQ(ExecutionConfig{1}.resolve(), 0);
  EXPECT_EQ(ExecutionConfig{2}.resolve(), 2);
  EXPECT_EQ(ExecutionConfig{8}.resolve(), 8);
}

TEST(ZeroThreadAudit, RoundTrippedSerialConfigsBuildNoPool) {
  // threads=0 and threads=1 both mean serial after any round-trip: the
  // solver constructs no execution engine, so no path can reach a
  // 0-thread pool.
  for (const std::string text : {"m=2", "m=2;threads=1"}) {
    const auto solver = Solver::from_string(text);
    EXPECT_EQ(solver.execution(), nullptr) << text;
  }
  const auto cfg = SolverConfig::from_string("m=2;threads=1");
  EXPECT_EQ(cfg.execution.resolve(), 0);
}

}  // namespace
}  // namespace mstep::solver
