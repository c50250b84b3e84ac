// The execution-policy layer: deterministic blocked reductions, threaded
// vector kernels, the partitioned SpMV, thread-pool stress
// (oversubscription, zero-work ranges, exception propagation), and the
// facade-level guarantee that a threads=N solve is BITWISE identical to the
// serial solve for every splitting and step count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "color/coloring.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "la/sell_matrix.hpp"
#include "par/execution.hpp"
#include "par/thread_pool.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_operator.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::par {
namespace {

// ---- deterministic kernels --------------------------------------------------

TEST(ExecutionDot, BitwiseMatchesSerialAcrossBlockBoundaries) {
  util::Rng rng(11);
  for (const int threads : {2, 4, 8}) {
    const Execution exec(threads);
    for (const index_t n : {1, 100, 1023, 1024, 1025, 4099, 20000}) {
      const Vec x = rng.uniform_vector(n);
      const Vec y = rng.uniform_vector(n);
      ASSERT_EQ(exec.dot(x, y), la::dot(x, y)) << "threads=" << threads
                                               << " n=" << n;
      ASSERT_EQ(exec.nrm2(x), la::nrm2(x)) << "threads=" << threads
                                           << " n=" << n;
    }
  }
}

TEST(ExecutionVectorOps, BitwiseMatchSerial) {
  util::Rng rng(5);
  const index_t n = 20000;
  const Vec x = rng.uniform_vector(n);
  const Execution exec(4);

  Vec y1 = rng.uniform_vector(n);
  Vec y2 = y1;
  la::axpy(0.37, x, y1);
  exec.axpy(0.37, x, y2);
  ASSERT_EQ(y1, y2);

  la::xpay(x, -1.25, y1);
  exec.xpay(x, -1.25, y2);
  ASSERT_EQ(y1, y2);

  // Fused CG update: u += a*p with the delta-inf stopping quantity.
  Vec u1 = y1;
  Vec u2 = y1;
  double mx1 = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double step = 0.81 * x[i];
    u1[i] += step;
    mx1 = std::max(mx1, std::abs(step));
  }
  const double mx2 = exec.step_update_max(0.81, x, u2);
  ASSERT_EQ(u1, u2);
  ASSERT_EQ(mx1, mx2);
}

// The one partitioned SpMV: every format on one-class (natural ordering)
// and six-class (colour-permuted) strip plans, for strip counts that do and
// do not divide the classes, is bitwise the serial product.
TEST(ShardedOperator, EveryFormatAndStripCountMatchesSerialBitwise) {
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(40);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  ASSERT_GE(sys.stiffness.rows(), 3000);
  const auto cs = color::make_colored_system(sys.stiffness,
                                             color::six_color_classes(mesh));
  ASSERT_EQ(cs.num_classes(), 6);
  const std::vector<index_t> one_class{0, sys.stiffness.rows()};

  util::Rng rng(17);
  const Vec x = rng.uniform_vector(sys.stiffness.rows());
  const Vec y0 = rng.uniform_vector(sys.stiffness.rows());
  ThreadPool pool(4);
  for (const bool colored : {false, true}) {
    const la::CsrMatrix& a = colored ? cs.matrix : sys.stiffness;
    const la::DiaMatrix dia = la::DiaMatrix::from_csr(a);
    const la::SellMatrix sell = la::SellMatrix::from_csr(a);
    const la::CsrOperator csr_op(a);
    const la::DiaOperator dia_op(dia);
    const la::SellOperator sell_op(sell);
    for (const int strips : {1, 2, 3, 4, 8}) {
      const shard::ShardPlan plan =
          shard::ShardPlan::build(colored ? cs.class_start : one_class, strips);
      ASSERT_EQ(plan.num_shards(), strips);
      const shard::ShardedOperator csr_sharded(a, plan, pool);
      const shard::ShardedOperator dia_sharded(dia, plan, pool);
      const shard::ShardedOperator sell_sharded(sell, plan, pool);
      const std::pair<const la::LinearOperator*, const la::LinearOperator*>
          pairs[] = {{&csr_op, &csr_sharded},
                     {&dia_op, &dia_sharded},
                     {&sell_op, &sell_sharded}};
      for (const auto& [serial, sharded] : pairs) {
        const std::string what = std::string(colored ? "six" : "one") +
                                 "-class strips=" + std::to_string(strips) +
                                 " diagonals=" +
                                 std::to_string(serial->num_nonzero_diagonals());
        ASSERT_EQ(sharded->rows(), serial->rows()) << what;
        ASSERT_EQ(sharded->num_nonzero_diagonals(),
                  serial->num_nonzero_diagonals())
            << what;
        Vec y_serial, y_sharded;
        serial->multiply(x, y_serial);
        sharded->multiply(x, y_sharded);
        ASSERT_EQ(y_serial, y_sharded) << what;

        Vec s_serial = y0;
        Vec s_sharded = y0;
        serial->multiply_sub(x, s_serial);
        sharded->multiply_sub(x, s_sharded);
        ASSERT_EQ(s_serial, s_sharded) << what;
      }
    }
  }
}

// ---- thread-pool stress -----------------------------------------------------

TEST(ThreadPoolStress, OversubscribedPoolStaysCorrect) {
  // Far more workers than cores: scheduling is adversarial, coverage and
  // reuse must hold anyway.
  ThreadPool pool(16);
  for (int round = 0; round < 200; ++round) {
    std::atomic<long long> sum{0};
    pool.for_each(0, 4097, [&](index_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 4097LL * 4096 / 2) << "round " << round;
  }
}

TEST(ThreadPoolStress, ZeroWorkRangesAreNoOpsBetweenRealJobs) {
  // Empty colour classes produce empty sweep ranges mid-solve; they must
  // neither hang nor disturb the next job.
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    int calls = 0;
    pool.for_range(round, round, [&](index_t, index_t) { ++calls; });
    pool.for_range(10, 3, [&](index_t, index_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> count{0};
    pool.for_each(0, 513, [&](index_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 513);
  }
}

TEST(ThreadPoolStress, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(8);
  EXPECT_THROW(
      pool.for_range(0, 100000,
                     [&](index_t b, index_t e) {
                       if (b <= 54321 && 54321 < e) {
                         throw std::runtime_error("boom");
                       }
                     }),
      std::runtime_error);

  // Every chunk throwing still surfaces exactly one exception.
  EXPECT_THROW(pool.for_range(0, 100000,
                              [](index_t, index_t) {
                                throw std::runtime_error("everywhere");
                              }),
               std::runtime_error);

  // The pool remains fully usable afterwards.
  std::atomic<int> count{0};
  pool.for_each(0, 10000, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10000);
}

TEST(ThreadPoolStress, ExceptionPropagatesFromSerialFallback) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.for_range(0, 10,
                              [](index_t, index_t) {
                                throw std::invalid_argument("serial boom");
                              }),
               std::invalid_argument);
}

TEST(Execution, RejectsNegativeThreadCount) {
  EXPECT_THROW(Execution(-1), std::invalid_argument);
  EXPECT_FALSE(Execution(0).parallel());
  EXPECT_FALSE(Execution(1).parallel());
  EXPECT_TRUE(Execution(2).parallel());
}

// ---- facade-level bitwise determinism ---------------------------------------

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

void expect_bitwise_equal(const solver::SolveReport& serial,
                          const solver::SolveReport& threaded,
                          const std::string& what) {
  ASSERT_TRUE(serial.converged()) << what;
  ASSERT_TRUE(threaded.converged()) << what;
  ASSERT_EQ(serial.iterations(), threaded.iterations()) << what;
  ASSERT_EQ(serial.result.inner_products, threaded.result.inner_products)
      << what;
  ASSERT_EQ(serial.result.final_delta_inf, threaded.result.final_delta_inf)
      << what;
  ASSERT_EQ(serial.solution.size(), threaded.solution.size()) << what;
  for (std::size_t i = 0; i < serial.solution.size(); ++i) {
    ASSERT_EQ(serial.solution[i], threaded.solution[i])
        << what << " i=" << i;
  }
}

// The ISSUE-level guarantee: for each registered splitting and
// m in {1, 2, 4}, the threaded solve is bitwise the serial solve.
TEST(SolverThreads, EverySplittingAndStepCountMatchesSerialBitwise) {
  const Plate p = make_plate(36);  // 2520 equations: above the cutoffs
  for (const auto& splitting :
       solver::SplittingRegistry::instance().names()) {
    for (const int m : {1, 2, 4}) {
      solver::SolverConfig cfg;
      cfg.splitting = splitting;
      cfg.steps = m;
      cfg.tolerance = 1e-8;
      const auto serial =
          solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
      for (const int threads : {2, 4}) {
        cfg.execution.threads = threads;
        const auto threaded =
            solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
        expect_bitwise_equal(serial, threaded,
                             splitting + " m=" + std::to_string(m) +
                                 " threads=" + std::to_string(threads));
      }
      cfg.execution.threads = 0;
    }
  }
}

TEST(SolverThreads, GenericSsorOmegaPathMatchesSerialBitwise) {
  // omega != 1 leaves the Algorithm-2 fast path: the generic m-step engine
  // under a threaded outer loop must still be bitwise serial.
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.splitting_options["omega"] = 1.3;
  cfg.steps = 2;
  cfg.tolerance = 1e-8;
  const auto serial =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  cfg.execution.threads = 4;
  const auto threaded =
      solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes);
  expect_bitwise_equal(serial, threaded, "ssor omega=1.3 threads=4");
}

TEST(SolverThreads, PlainCgMatchesSerialBitwise) {
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.steps = 0;
  cfg.ordering = solver::Ordering::kNatural;
  cfg.tolerance = 1e-8;
  const auto serial = solver::Solver::from_config(cfg).solve(p.k, p.f);
  cfg.execution.threads = 4;
  const auto threaded = solver::Solver::from_config(cfg).solve(p.k, p.f);
  expect_bitwise_equal(serial, threaded, "m=0 threads=4");
}

TEST(SolverThreads, PreparedReusesOnePoolAcrossRightHandSides) {
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  cfg.execution.threads = 2;
  const auto solver = solver::Solver::from_config(cfg);
  ASSERT_NE(solver.execution(), nullptr);
  EXPECT_EQ(solver.execution()->threads(), 2);

  const auto prepared = solver.prepare(p.k, p.classes);
  const auto r1 = prepared.solve(p.f);
  Vec f2 = p.f;
  for (auto& v : f2) v *= 3.0;
  const auto r2 = prepared.solve(f2);
  ASSERT_TRUE(r1.converged());
  ASSERT_TRUE(r2.converged());
  for (index_t i = 0; i < p.k.rows(); ++i) {
    ASSERT_NEAR(r2.solution[i], 3.0 * r1.solution[i], 1e-6);
  }
}

TEST(SolverThreads, InstrumentationStreamMatchesSerial) {
  // The threaded fast path narrates the same kernel stream as the serial
  // sweep, so modelled CYBER seconds are thread-count independent.
  const Plate p = make_plate(36);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;

  core::CountingLog serial_log;
  (void)solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes,
                                               &serial_log);
  cfg.execution.threads = 4;
  core::CountingLog threaded_log;
  (void)solver::Solver::from_config(cfg).solve(p.k, p.f, p.classes,
                                               &threaded_log);

  EXPECT_EQ(serial_log.vec_ops, threaded_log.vec_ops);
  EXPECT_EQ(serial_log.dots, threaded_log.dots);
  EXPECT_EQ(serial_log.spmvs, threaded_log.spmvs);
  EXPECT_EQ(serial_log.diag_ops, threaded_log.diag_ops);
  EXPECT_EQ(serial_log.precond_steps, threaded_log.precond_steps);
  EXPECT_EQ(serial_log.flops, threaded_log.flops);
}

// ---- config round-trip ------------------------------------------------------

TEST(ExecutionConfig, ThreadsRoundTripsThroughStringAndCli) {
  solver::SolverConfig cfg;
  cfg.execution.threads = 4;
  EXPECT_NE(cfg.to_string().find(";threads=4"), std::string::npos);
  EXPECT_EQ(cfg, solver::SolverConfig::from_string(cfg.to_string()));

  const char* argv[] = {"prog", "--threads=8", "--m=2"};
  const util::Cli cli(3, argv, solver::SolverConfig::cli_flags());
  const auto from_cli = solver::SolverConfig::from_cli(cli);
  EXPECT_EQ(from_cli.execution.threads, 8);
  EXPECT_EQ(from_cli.execution.resolve(), 8);
}

TEST(ExecutionConfig, SerialDefaultKeepsConfigStringUnchanged) {
  // threads=0 must serialize exactly as the unthreaded library did.
  const solver::SolverConfig cfg;
  EXPECT_EQ(cfg.to_string().find("threads"), std::string::npos);
  EXPECT_EQ(cfg.execution.resolve(), 0);
  EXPECT_EQ(solver::Solver::from_config(cfg).execution(), nullptr);
}

TEST(ExecutionConfig, EverySerialSpellingHasOneCanonicalString) {
  // threads=0, threads=1 and shards=1 run the same solve (no pool, no
  // strips), so they serialize alike and compare equal.
  const auto serial = solver::SolverConfig::from_string("m=2");
  for (const char* text : {"m=2;threads=0", "m=2;threads=1", "m=2;shards=1"}) {
    const auto cfg = solver::SolverConfig::from_string(text);
    EXPECT_EQ(cfg.to_string(), serial.to_string()) << text;
    EXPECT_EQ(cfg, serial) << text;
  }
  EXPECT_EQ(serial.to_string().find("threads"), std::string::npos);
  EXPECT_NE(solver::SolverConfig::from_string("m=2;threads=2"), serial);
}

TEST(ExecutionConfig, RejectsNegativeThreads) {
  EXPECT_THROW(solver::SolverConfig::from_string("threads=-2"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mstep::par
