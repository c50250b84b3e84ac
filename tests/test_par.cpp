// Tests for the shared-memory substrate: the thread pool and the
// Algorithm-2 engine on N strips (race-freedom and bitwise determinism).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>

#include "color/coloring.hpp"
#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "fem/plane_stress.hpp"
#include "par/thread_pool.hpp"
#include "shard/partition.hpp"
#include "util/rng.hpp"

namespace mstep::par {
namespace {

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each(0, 1000, [&](index_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(3);
  int calls = 0;
  pool.for_range(5, 5, [&](index_t, index_t) { ++calls; });
  pool.for_range(7, 3, [&](index_t, index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SerialFallbackForOneThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> hits(64, 0);
  pool.for_each(0, 64, [&](index_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, ChunksPartitionRange) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  pool.for_range(10, 5010, [&](index_t b, index_t e) {
    long long local = 0;
    for (index_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  long long expect = 0;
  for (index_t i = 10; i < 5010; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.for_each(0, 97, [&](index_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 97) << "round " << round;
  }
}

// A worker that wakes after a job has run dry must not join it: the job's
// caller has returned and its body is gone.  Back-to-back jobs alternate
// between two sizes and two stack slots for the body; each body is
// poisoned as soon as its job returns, so a late call through a stale body
// pointer (with the next job's indices) is counted, or crashes, instead of
// silently running the next round's body.
TEST(ThreadPool, LateWorkerNeverCallsAFinishedJobsBody) {
  ThreadPool pool(4);
  std::atomic<long long> visited{0};
  std::atomic<long long> stale{0};
  std::function<void(index_t, index_t)> slots[2];
  constexpr int kRounds = 60000;
  long long expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::function<void(index_t, index_t)>& body = slots[round % 2];
    const index_t size = round % 2 == 0 ? 32 : 4;
    expected += size;
    body = [&visited](index_t b, index_t e) {
      // A little work per index keeps the workers cycling through jobs.
      double acc = 0.0;
      for (index_t i = b; i < e; ++i) {
        for (int w = 0; w < 10; ++w) {
          acc += std::sqrt(static_cast<double>(i + w));
        }
      }
      visited.fetch_add(acc >= 0.0 ? e - b : 0, std::memory_order_relaxed);
    };
    pool.for_range(0, size, body);
    body = [&stale](index_t, index_t) { stale.fetch_add(1); };
  }
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(visited.load(), expected);
}

// Two threads dispatching on one pool, as the daemon's connection threads
// do on a cached solver's pool: each caller's job must cover its own range
// exactly once and touch nothing beyond it, however the jobs interleave.
TEST(ThreadPool, ConcurrentCallersEachRunTheirOwnJobExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kRounds = 20000;
  constexpr index_t kMaxSize = 64;
  std::atomic<int> wrong_rounds{0};
  const auto caller = [&](int seed) {
    std::vector<std::atomic<int>> hits(kMaxSize);
    for (int round = 0; round < kRounds; ++round) {
      const index_t size = 8 + (7 * round + seed) % (kMaxSize - 7);
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      pool.for_range(0, size, [&hits](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (index_t i = 0; i < kMaxSize; ++i) {
        if (hits[i].load(std::memory_order_relaxed) != (i < size ? 1 : 0)) {
          wrong_rounds.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  EXPECT_EQ(wrong_rounds.load(), 0);
}

struct ColoredPlate {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  Vec f;
  color::ColoredSystem cs;
};

ColoredPlate make_plate(int a) {
  fem::PlateMesh mesh = fem::PlateMesh::unit_square(a);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                        fem::EdgeLoad{1.0, 0.0});
  auto cs = color::make_colored_system(sys.stiffness,
                                       color::six_color_classes(mesh));
  return {std::move(mesh), std::move(sys.stiffness), std::move(sys.load),
          std::move(cs)};
}

/// The Algorithm-2 engine on `strips` strips of `cs`, run on `pool`.
core::MulticolorMStepSsor strip_engine(const color::ColoredSystem& cs,
                                       const std::vector<double>& alphas,
                                       int strips, ThreadPool& pool) {
  return core::MulticolorMStepSsor(
      cs, alphas, shard::ShardPlan::build(cs.class_start, strips), pool);
}

class StripSweepBitwise : public ::testing::TestWithParam<int> {};

TEST_P(StripSweepBitwise, MatchesSerialExactly) {
  // The decoupling property makes the strip sweep deterministic: the
  // result must be BITWISE the one-strip one, for any strip count.
  const int strips = GetParam();
  const auto p = make_plate(12);
  const auto alphas = core::least_squares_alphas(3, core::ssor_interval());

  const core::MulticolorMStepSsor serial(p.cs, alphas);
  ThreadPool pool(strips);
  const auto engine = strip_engine(p.cs, alphas, strips, pool);
  ASSERT_EQ(engine.plan()->num_strips(), strips);

  util::Rng rng(strips);
  for (int trial = 0; trial < 5; ++trial) {
    const Vec r = rng.uniform_vector(p.cs.size());
    Vec z1, z2;
    serial.apply(r, z1);
    engine.apply(r, z2);
    for (index_t i = 0; i < p.cs.size(); ++i) {
      ASSERT_EQ(z1[i], z2[i]) << "strips=" << strips << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strips, StripSweepBitwise,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(StripSweep, DrivesPcgToSameIterationCount) {
  const auto p = make_plate(10);
  const Vec f = p.cs.permute(p.f);
  const auto alphas = core::least_squares_alphas(4, core::ssor_interval());
  core::PcgOptions opt;
  opt.tolerance = 1e-8;

  const core::MulticolorMStepSsor serial(p.cs, alphas);
  const auto seq = core::pcg_solve(p.cs.matrix, f, serial, opt);

  ThreadPool pool(4);
  const auto engine = strip_engine(p.cs, alphas, 4, pool);
  const auto par_res = core::pcg_solve(p.cs.matrix, f, engine, opt);

  EXPECT_EQ(seq.iterations, par_res.iterations);
  for (index_t i = 0; i < p.cs.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.solution[i], par_res.solution[i]);
  }
}

TEST(StripSweep, WorksWithTwoColorPoisson) {
  const fem::PoissonProblem prob(9, 7);
  const auto a = prob.matrix();
  const auto cs =
      color::make_colored_system(a, color::two_color_classes(prob));
  const auto alphas = core::unparametrized_alphas(2);
  const core::MulticolorMStepSsor serial(cs, alphas);
  ThreadPool pool(3);
  const auto engine = strip_engine(cs, alphas, 3, pool);
  util::Rng rng(7);
  const Vec r = rng.uniform_vector(cs.size());
  Vec z1, z2;
  serial.apply(r, z1);
  engine.apply(r, z2);
  for (index_t i = 0; i < cs.size(); ++i) EXPECT_EQ(z1[i], z2[i]);
}

TEST(StripSweep, NamesItsStripCount) {
  const auto p = make_plate(6);
  const auto alphas = core::unparametrized_alphas(2);
  ThreadPool pool(2);
  EXPECT_EQ(core::MulticolorMStepSsor(p.cs, alphas).name(),
            "multicolor-ssor-m2");
  EXPECT_EQ(strip_engine(p.cs, alphas, 2, pool).name(),
            "multicolor-ssor-m2-s2");
  // A multi-strip plan has nothing to run on without a pool.
  EXPECT_THROW(core::MulticolorMStepSsor(
                   std::make_shared<const core::MulticolorSweepPlan>(
                       p.cs, alphas, 2)),
               std::invalid_argument);
}

// The plan is immutable and the scratch is per engine: four engines over
// one shared plan, applied concurrently from four threads, each reproduce
// the serial bits.
TEST(StripSweep, EnginesSharingOnePlanApplyConcurrently) {
  const auto p = make_plate(12);
  const auto alphas = core::least_squares_alphas(4, core::ssor_interval());
  const auto plan =
      std::make_shared<const core::MulticolorSweepPlan>(p.cs, alphas);
  const core::MulticolorMStepSsor serial(p.cs, alphas);

  constexpr int kEngines = 4;
  std::vector<Vec> rs, expected(kEngines), got(kEngines);
  util::Rng rng(11);
  for (int e = 0; e < kEngines; ++e) {
    rs.push_back(rng.uniform_vector(p.cs.size()));
    serial.apply(rs[e], expected[e]);
  }
  std::vector<std::unique_ptr<core::MulticolorMStepSsor>> engines;
  for (int e = 0; e < kEngines; ++e) {
    engines.push_back(std::make_unique<core::MulticolorMStepSsor>(plan));
  }
  std::vector<std::thread> threads;
  for (int e = 0; e < kEngines; ++e) {
    threads.emplace_back([&, e] {
      for (int rep = 0; rep < 20; ++rep) engines[e]->apply(rs[e], got[e]);
    });
  }
  for (auto& t : threads) t.join();
  for (int e = 0; e < kEngines; ++e) {
    ASSERT_EQ(got[e], expected[e]) << "engine " << e;
  }
}

TEST(RowSplits, RejectsCoupledClasses) {
  const fem::PoissonProblem prob(3, 3);
  const auto a = prob.matrix();
  color::ColorClasses one;
  one.classes.assign(1, {});
  for (index_t i = 0; i < a.rows(); ++i) one.classes[0].push_back(i);
  const auto cs = color::make_colored_system(a, one);
  EXPECT_THROW(color::compute_row_splits(cs), std::invalid_argument);
}

}  // namespace
}  // namespace mstep::par
