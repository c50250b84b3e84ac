// The strip partition's headline guarantee: a partitioned solve is BITWISE
// identical to the serial solve for every registered splitting x operator
// format x strip count, requested as `threads` or through its `shards`
// alias — including a strip count that does not divide the class sizes —
// and a system too small to partition runs serially, observably so in the
// report.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/execution.hpp"
#include "problems/problem.hpp"
#include "shard/partition.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::solver {
namespace {

void expect_bitwise_equal(const SolveReport& serial, const SolveReport& sharded,
                          const std::string& what) {
  ASSERT_TRUE(serial.converged()) << what;
  ASSERT_TRUE(sharded.converged()) << what;
  ASSERT_EQ(serial.iterations(), sharded.iterations()) << what;
  ASSERT_EQ(serial.result.final_delta_inf, sharded.result.final_delta_inf)
      << what;
  ASSERT_EQ(serial.result.inner_products, sharded.result.inner_products)
      << what;
  ASSERT_EQ(serial.solution.size(), sharded.solution.size()) << what;
  for (std::size_t i = 0; i < serial.solution.size(); ++i) {
    ASSERT_EQ(serial.solution[i], sharded.solution[i]) << what << " i=" << i;
  }
}

// ---- the ISSUE-level guarantee ----------------------------------------------

// Every registered splitting x {csr, dia, sell} x shards {1, 2, 4, 7} x
// threads {1, 4} produces the serial bits.  The grid is deliberately
// coprime with 7 (48^2 = 2304 rows, above par::kSerialCutoff, in two
// colour blocks of 1152), so strips of unequal length and per-class
// remainders are always exercised; reports must agree on the pipeline
// choices (iterations, format) too.
TEST(ShardedSolve, EverySplittingFormatShardsThreadsMatchesSerialBitwise) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=48");
  ASSERT_TRUE(p.has_classes());
  ASSERT_GE(p.matrix.rows(), par::kSerialCutoff);

  for (const auto& splitting : SplittingRegistry::instance().names()) {
    for (const MatrixFormat format :
         {MatrixFormat::kCsr, MatrixFormat::kDia, MatrixFormat::kSell}) {
      SolverConfig base;
      base.splitting = splitting;
      base.steps = 2;
      base.format = format;
      base.tolerance = 1e-8;

      const auto serial_report =
          Solver::from_config(base).prepare(p.matrix, p.classes).solve(p.rhs);

      for (const int shards : {1, 2, 4, 7}) {
        for (const int threads : {1, 4}) {
          const SolverConfig cfg = SolverConfig::from_string(
              base.to_string() + ";shards=" + std::to_string(shards) +
              ";threads=" + std::to_string(threads));
          ASSERT_EQ(cfg.execution.threads, std::max(shards, threads));
          const std::string what = splitting + "/" + to_string(format) +
                                   "/shards=" + std::to_string(shards) +
                                   "/threads=" + std::to_string(threads);

          const auto prepared =
              Solver::from_config(cfg).prepare(p.matrix, p.classes);
          const auto report = prepared.solve(p.rhs);
          expect_bitwise_equal(serial_report, report, what);
          // The wider request is the strip count; one strip is serial.
          const int strips = std::max(shards, threads);
          ASSERT_EQ(report.shards, strips >= 2 ? strips : 0) << what;
        }
      }
    }
  }
}

// A system below par::kSerialCutoff rows is never partitioned, whatever
// the strip request: dispatch would cost more than it saves.  The report
// says so, and the bits are the serial solve's.  (The plan-level clamp to
// the widest colour block is covered in test_shard_halo.)
TEST(ShardedSolve, TinySystemRunsSeriallyBitwise) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=12");
  ASSERT_TRUE(p.has_classes());
  ASSERT_LT(p.matrix.rows(), par::kSerialCutoff);

  SolverConfig plain;
  plain.steps = 2;
  plain.tolerance = 1e-10;
  const auto serial_report =
      Solver::from_config(plain).prepare(p.matrix, p.classes).solve(p.rhs);

  SolverConfig cfg = plain;
  cfg.execution.threads = 64;
  const auto prepared = Solver::from_config(cfg).prepare(p.matrix, p.classes);
  ASSERT_EQ(prepared.shards(), 0);
  const auto report = prepared.solve(p.rhs);
  ASSERT_EQ(report.shards, 0);
  ASSERT_EQ(report.preconditioner_name, "multicolor-ssor-m2");
  expect_bitwise_equal(serial_report, report, "tiny");
}

// Natural ordering has no colour blocks: its partition is one block, the
// whole row range, cut into strips for the products and vector ops.
TEST(ShardedSolve, NaturalOrderingPartitionsTheWholeRowRange) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=48");
  SolverConfig plain;
  plain.ordering = Ordering::kNatural;
  plain.splitting = "jacobi";
  plain.steps = 2;
  plain.tolerance = 1e-8;
  const auto serial_report = Solver::from_config(plain).solve(p.matrix, p.rhs);

  SolverConfig cfg = plain;
  cfg.execution.threads = 4;
  const auto report = Solver::from_config(cfg).solve(p.matrix, p.rhs);
  ASSERT_EQ(report.shards, 4);
  expect_bitwise_equal(serial_report, report, "natural threads=4");
}

// ---- batched interplay ------------------------------------------------------

// One lane rule: a single lane (batch=1) runs the partitioned solve path,
// and wider batches run serial lanes beside each other.  Both are bitwise
// the serial batch, and each report says which ran.
TEST(ShardedSolve, BatchedSolvesStayBitwiseAndReportEngagement) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=48");

  std::vector<Vec> bs;
  bs.push_back(p.rhs);
  util::Rng rng(7);
  for (int j = 1; j < 4; ++j) bs.push_back(rng.uniform_vector(p.rhs.size()));

  SolverConfig plain;
  plain.steps = 2;
  plain.tolerance = 1e-8;
  const auto serial = Solver::from_config(plain).prepare(p.matrix, p.classes);
  std::vector<SolveReport> expected;
  for (const Vec& f : bs) expected.push_back(serial.solve(f));

  // batch=1 runs partitioned; batch=4 runs serial lanes; the default (the
  // pool width, capped at the hardware width) is whichever of the two its
  // lane count makes it.
  for (const int batch : {1, 4, 0}) {
    const std::string what = "shards=4;batch=" + std::to_string(batch);
    const auto prepared = Solver::from_string(plain.to_string() + ";" + what)
                              .prepare(p.matrix, p.classes);
    ASSERT_EQ(prepared.shards(), 4) << what;
    const auto br = prepared.solveMany(util::Span<const Vec>(bs));
    if (batch > 0) {
      ASSERT_EQ(br.concurrency, batch) << what;
    }
    const int strips = br.concurrency == 1 ? 4 : 0;
    for (std::size_t i = 0; i < bs.size(); ++i) {
      ASSERT_TRUE(br.ok(i)) << what;
      expect_bitwise_equal(expected[i], br.reports[i],
                           what + " rhs " + std::to_string(i));
      ASSERT_EQ(br.reports[i].shards, strips) << what;
    }
  }
}

// ---- config plumbing --------------------------------------------------------

// `shards=N` is a parse alias of `threads=N`: the wider wins in either
// order, the canonical string names only threads (so both spellings share
// one daemon cache entry), and a negative count still throws.
TEST(ShardedConfig, ShardsIsAnAliasOfThreads) {
  SolverConfig four;
  four.execution.threads = 4;
  for (const char* text : {"shards=4;threads=2", "threads=2;shards=4",
                           "shards=4", "threads=4;shards=4"}) {
    const SolverConfig cfg = SolverConfig::from_string(text);
    ASSERT_EQ(cfg, four) << text;
    ASSERT_EQ(cfg.to_string(), four.to_string()) << text;
  }
  ASSERT_NE(four.to_string().find(";threads=4"), std::string::npos);
  ASSERT_EQ(four.to_string().find("shards"), std::string::npos);
  ASSERT_EQ(four.execution.shard_count(), four.execution.resolve());

  const char* argv[] = {"prog", "--shards=3", "--threads=2", "--m=2"};
  const util::Cli cli(4, argv, SolverConfig::cli_flags());
  const SolverConfig from_cli = SolverConfig::from_cli(cli);
  ASSERT_EQ(from_cli.execution.threads, 3);
  ASSERT_EQ(from_cli.steps, 2);

  ASSERT_THROW(SolverConfig::from_string("shards=-1"), std::invalid_argument);
  ASSERT_THROW(SolverConfig::from_string("threads=4;shards=-1"),
               std::invalid_argument);
  ASSERT_THROW(SolverConfig::from_string("threads=-1;shards=4"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mstep::solver
