// The tracing subsystem: span recording and export shape, scoped
// enabling, correlation filtering, ring-buffer drop accounting, the
// TracingKernelLog adapter, thread-safety of concurrent recording
// against a live export (the TSan job runs this target), and the
// load-bearing guarantee that tracing NEVER changes solution bits —
// asserted per splitting x operator format.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/kernel_log.hpp"
#include "obs/trace.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/span.hpp"

namespace mstep::obs {
namespace {

/// Every test leaves the process-wide tracer the way it found it:
/// disabled and empty (the tests share one singleton).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
};

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  {
    const Span s("solve");
    const Span t("iteration");
  }
  count(Counter::kFlops, 100);
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_EQ(json.find("\"solve\""), std::string::npos);
  EXPECT_EQ(Tracer::instance().counter(Counter::kFlops), 0);
}

TEST_F(ObsTest, EnabledSpansAndCountersExport) {
  Tracer::instance().set_enabled(true);
  name_thread("main");
  {
    const Span outer("solve");
    { const Span inner("iteration"); }
    count(Counter::kFlops, 42);
  }
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"iteration\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  EXPECT_EQ(Tracer::instance().counter(Counter::kFlops), 42);
}

TEST_F(ObsTest, EnableScopeIsARefcount) {
  EXPECT_FALSE(Tracer::instance().enabled());
  {
    const EnableScope a;
    EXPECT_TRUE(Tracer::instance().enabled());
    {
      const EnableScope b;
      EXPECT_TRUE(Tracer::instance().enabled());
    }
    EXPECT_TRUE(Tracer::instance().enabled());
  }
  EXPECT_FALSE(Tracer::instance().enabled());
}

TEST_F(ObsTest, CorrelationFiltersTheExport) {
  Tracer::instance().set_enabled(true);
  {
    const CorrelationScope c(7);
    const Span s("request");
  }
  { const Span s("stray"); }
  const std::string filtered = Tracer::instance().chrome_json(7);
  EXPECT_NE(filtered.find("\"request\""), std::string::npos);
  EXPECT_EQ(filtered.find("\"stray\""), std::string::npos);
  EXPECT_NE(filtered.find("\"correlation\""), std::string::npos);
  const std::string everything = Tracer::instance().chrome_json();
  EXPECT_NE(everything.find("\"request\""), std::string::npos);
  EXPECT_NE(everything.find("\"stray\""), std::string::npos);
}

TEST_F(ObsTest, CorrelationScopeRestoresTheOldId) {
  EXPECT_EQ(correlation(), 0u);
  {
    const CorrelationScope outer(5);
    EXPECT_EQ(correlation(), 5u);
    {
      const CorrelationScope inner(9);
      EXPECT_EQ(correlation(), 9u);
    }
    EXPECT_EQ(correlation(), 5u);
  }
  EXPECT_EQ(correlation(), 0u);
}

TEST_F(ObsTest, RingBufferDropsAreCounted) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  // Overrun one thread's 2^16-event ring; the export must stay well
  // formed and the overwrites must be accounted, not silent.
  const int n = (1 << 16) + 500;
  for (int i = 0; i < n; ++i) t.record("spin", i, 1, 0);
  EXPECT_GE(t.dropped_events(), 500u);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"spin\""), std::string::npos);
  t.reset();
  EXPECT_EQ(t.dropped_events(), 0u);
}

TEST_F(ObsTest, TracingKernelLogFeedsInnerLogAndCounters) {
  core::CountingLog inner;
  TracingKernelLog log(&inner);
  Tracer::instance().set_enabled(true);
  log.vec_op(10, 3);
  log.dot_op(10);
  log.spmv_diagonals(10, 5);
  log.end_precond_step();
  log.end_iteration();
  // The inner census saw the same stream...
  EXPECT_EQ(inner.vec_ops, 3);
  EXPECT_EQ(inner.dots, 1);
  EXPECT_EQ(inner.spmvs, 1);
  EXPECT_EQ(inner.precond_steps, 1);
  EXPECT_EQ(inner.iterations, 1);
  // ...and the tracer's counters got the matching totals.
  Tracer& t = Tracer::instance();
  EXPECT_EQ(t.counter(Counter::kVecOps), 3);
  EXPECT_EQ(t.counter(Counter::kDots), 1);
  EXPECT_EQ(t.counter(Counter::kSpmvs), 1);
  EXPECT_EQ(t.counter(Counter::kSweeps), 1);
  EXPECT_EQ(t.counter(Counter::kFlops), 3LL * 10 + 2 * 10 + 2 * 10 * 5);
}

TEST_F(ObsTest, TracingOffKeepsTheInnerLogStream) {
  core::CountingLog inner;
  TracingKernelLog log(&inner);
  log.vec_op(8, 2);
  log.dot_op(8);
  EXPECT_EQ(inner.vec_ops, 2);
  EXPECT_EQ(inner.dots, 1);
  EXPECT_EQ(Tracer::instance().counter(Counter::kVecOps), 0);
}

// ---- thread safety (the TSan job runs this) ---------------------------------

TEST_F(ObsTest, ConcurrentRecordingAgainstALiveExportIsClean) {
  Tracer& t = Tracer::instance();
  const EnableScope enable;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&t, w] {
      name_thread("writer-" + std::to_string(w));
      const CorrelationScope c(static_cast<std::uint64_t>(w + 1));
      for (int i = 0; i < 400; ++i) {
        const Span s("work");
        count(Counter::kFlops, 1);
        (void)t.now_us();
      }
    });
  }
  // Export and inspect concurrently with the writers.
  std::thread reader([&t, &stop] {
    while (!stop.load()) {
      const std::string json = t.chrome_json();
      ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
      (void)t.dropped_events();
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(t.counter(Counter::kFlops), 8 * 400);
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"work\""), std::string::npos);
  EXPECT_NE(json.find("writer-"), std::string::npos);
}

// ---- the bitwise invariant --------------------------------------------------

// Tracing reads clocks and fills ring buffers; it must never touch the
// floating-point data flow.  For every registered splitting and every
// concrete operator format, a fully traced solve (spans + kernel
// census + counters) is bitwise identical to the untraced one.
TEST_F(ObsTest, TracedSolveIsBitwiseIdenticalPerSplittingAndFormat) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=12");
  using solver::MatrixFormat;
  const std::pair<MatrixFormat, const char*> formats[] = {
      {MatrixFormat::kCsr, "csr"},
      {MatrixFormat::kDia, "dia"},
      {MatrixFormat::kSell, "sell"},
      {MatrixFormat::kAuto, "auto"},
  };
  for (const auto& splitting :
       solver::SplittingRegistry::instance().names()) {
    for (const auto& [format, format_name] : formats) {
      solver::SolverConfig cfg;
      cfg.splitting = splitting;
      cfg.steps = 2;
      cfg.tolerance = 1e-8;
      cfg.format = format;
      const std::string what = splitting + " / " + format_name;

      Tracer::instance().reset();
      Tracer::instance().set_enabled(false);
      const auto plain =
          solver::Solver::from_config(cfg).prepare(p.matrix).solveMany(
              util::Span<const Vec>(&p.rhs, 1));
      ASSERT_TRUE(plain.all_converged()) << what;

      Tracer::instance().set_enabled(true);
      const auto traced =
          solver::Solver::from_config(cfg).prepare(p.matrix).solveMany(
              util::Span<const Vec>(&p.rhs, 1));
      Tracer::instance().set_enabled(false);
      ASSERT_TRUE(traced.all_converged()) << what;

      const auto& a = plain.reports[0];
      const auto& b = traced.reports[0];
      ASSERT_EQ(a.iterations(), b.iterations()) << what;
      ASSERT_EQ(a.result.final_delta_inf, b.result.final_delta_inf) << what;
      ASSERT_EQ(a.solution.size(), b.solution.size()) << what;
      for (std::size_t i = 0; i < a.solution.size(); ++i) {
        ASSERT_EQ(a.solution[i], b.solution[i]) << what << " i=" << i;
      }
      // The traced run actually traced: spans and a kernel census exist.
      const std::string json = Tracer::instance().chrome_json();
      EXPECT_NE(json.find("\"prepare\""), std::string::npos) << what;
      EXPECT_NE(json.find("\"solve\""), std::string::npos) << what;
      EXPECT_NE(json.find("\"iteration\""), std::string::npos) << what;
      EXPECT_GT(Tracer::instance().counter(Counter::kFlops), 0) << what;
    }
  }
}

// The sharded backend under the tracer: every shard phase body opens a
// "shard" span and every ghost drain/post a "halo_exchange" span (on the
// pool track that ran it, so nesting stays strict per track — the CI
// check_trace.py smoke validates that on a real trace file), the halo
// counters see the exchanged volume, and tracing a sharded solve still
// never changes bits.
TEST_F(ObsTest, TracedShardedSolveIsBitwiseIdenticalAndEmitsShardSpans) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=48");
  ASSERT_TRUE(p.has_classes());  // 2304 rows: large enough to partition
  solver::SolverConfig cfg;
  cfg.steps = 2;
  cfg.tolerance = 1e-8;
  cfg.execution.threads = 3;

  Tracer::instance().reset();
  Tracer::instance().set_enabled(false);
  const auto plain = solver::Solver::from_config(cfg)
                         .prepare(p.matrix, p.classes)
                         .solve(p.rhs);
  ASSERT_TRUE(plain.converged());
  ASSERT_EQ(plain.shards, 3);

  Tracer::instance().set_enabled(true);
  const auto traced = solver::Solver::from_config(cfg)
                          .prepare(p.matrix, p.classes)
                          .solve(p.rhs);
  Tracer::instance().set_enabled(false);
  ASSERT_TRUE(traced.converged());
  ASSERT_EQ(traced.shards, 3);

  ASSERT_EQ(plain.iterations(), traced.iterations());
  ASSERT_EQ(plain.result.final_delta_inf, traced.result.final_delta_inf);
  ASSERT_EQ(plain.solution.size(), traced.solution.size());
  for (std::size_t i = 0; i < plain.solution.size(); ++i) {
    ASSERT_EQ(plain.solution[i], traced.solution[i]) << "i=" << i;
  }

  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"halo_exchange\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  // The red/black grid has cross-shard coupling everywhere: real ghost
  // traffic must have been counted (and its volume in doubles).
  EXPECT_GT(Tracer::instance().counter(Counter::kHaloExchanges), 0);
  EXPECT_GT(Tracer::instance().counter(Counter::kHaloDoubles),
            Tracer::instance().counter(Counter::kHaloExchanges));
}

}  // namespace
}  // namespace mstep::obs
