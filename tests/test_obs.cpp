// The tracing subsystem: span recording and export shape, scoped
// enabling, correlation filtering, ring-buffer drop accounting, the
// TracingKernelLog adapter, thread-safety of concurrent recording
// against a live export (the TSan job runs this target), and the
// load-bearing guarantee that tracing NEVER changes solution bits —
// asserted per splitting x operator format.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <regex>
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
  // Every exported counter is an exact count; there is no byte model.
  EXPECT_EQ(t.chrome_json().find("bytes"), std::string::npos);
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
// floating-point data flow.  For every registered splitting, a fully
// traced solve (spans + kernel census + counters) is bitwise identical to
// the untraced one.
TEST_F(ObsTest, TracedSolveIsBitwiseIdenticalPerSplitting) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=12");
  for (const auto& splitting :
       solver::SplittingRegistry::instance().names()) {
    solver::SolverConfig cfg;
    cfg.splitting = splitting;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;
    const std::string& what = splitting;

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

// Each stage of Solver::prepare records its own span, and all four nest
// inside "prepare": the colouring, the store build, the parameter
// selection and the preconditioner build.
TEST_F(ObsTest, PrepareStagesNestInsidePrepare) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=8");
  solver::SolverConfig cfg;
  cfg.steps = 2;
  Tracer::instance().set_enabled(true);
  (void)solver::Solver::from_config(cfg).prepare(p.matrix, p.classes);
  Tracer::instance().set_enabled(false);

  struct Event {
    long long begin;
    long long end;
  };
  std::map<std::string, std::vector<Event>> events;
  const std::string json = Tracer::instance().chrome_json();
  const std::regex complete(
      R"re("name": "(\w+)", "ph": "X", "ts": (\d+), "dur": (\d+))re");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), complete);
       it != std::sregex_iterator(); ++it) {
    const long long ts = std::stoll((*it)[2]);
    events[(*it)[1]].push_back({ts, ts + std::stoll((*it)[3])});
  }
  ASSERT_EQ(events["prepare"].size(), 1u) << json;
  const Event prepare = events["prepare"][0];
  for (const char* stage : {"coloring", "store", "params", "precond"}) {
    ASSERT_EQ(events[stage].size(), 1u) << stage;
    const Event e = events[stage][0];
    EXPECT_LE(prepare.begin, e.begin) << stage;
    EXPECT_LE(e.end, prepare.end) << stage;
  }
}

// A traced block of right-hand sides narrates every live column's kernel
// stream, so its census equals that of the same right-hand sides solved
// one per lane — with columns that stop at different iterations (a zero
// right-hand side never enters the loop; a tiny one stops early).
TEST_F(ObsTest, TracedBlockCensusEqualsOneRhsPerLane) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=8");
  std::vector<Vec> bs(4, p.rhs);
  for (double& v : bs[1]) v *= 1e-6;
  bs[2].assign(p.rhs.size(), 0.0);
  for (std::size_t i = 0; i < bs[3].size(); ++i) bs[3][i] *= 1.0 + 0.1 * i;
  const auto census = [&](int batch) {
    solver::SolverConfig cfg;
    cfg.steps = 2;
    cfg.tolerance = 1e-8;
    cfg.batch = batch;
    const auto prepared =
        solver::Solver::from_config(cfg).prepare(p.matrix, p.classes);
    Tracer::instance().reset();
    Tracer::instance().set_enabled(true);
    const auto br = prepared.solveMany(util::Span<const Vec>(bs));
    Tracer::instance().set_enabled(false);
    EXPECT_TRUE(br.all_converged()) << "batch=" << batch;
    std::vector<long long> counts;
    for (const Counter c : {Counter::kFlops, Counter::kVecOps,
                            Counter::kDots, Counter::kSpmvs,
                            Counter::kSweeps}) {
      counts.push_back(Tracer::instance().counter(c));
    }
    return counts;
  };
  const std::vector<long long> block = census(1);  // one lane, w = 4
  const std::vector<long long> lanes = census(4);  // four lanes, w = 1
  EXPECT_GT(block[0], 0);
  EXPECT_EQ(block, lanes);
}

// The sharded backend under the tracer: every shard phase body opens a
// "shard" span (on the pool track that ran it, so nesting stays strict per
// track — the CI check_trace.py smoke validates that on a real trace
// file), and tracing a sharded solve still never changes bits.
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
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
}

}  // namespace
}  // namespace mstep::obs
