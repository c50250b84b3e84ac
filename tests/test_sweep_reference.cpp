// An independent check of the Algorithm-2 sweep's bits and storage.
//
// The other sweep checks compare the engine with itself: SIMD on against
// off, N strips against one, the block path against the single-vector
// path.  A storage bug that moved every path alike would pass them all.
// Here Algorithm 2 is written out by hand on plain CSR row segments, each
// sum one la::simd::row_dot call, and MulticolorMStepSsor::apply must
// match it bit for bit on every owner map — 1-8 strips, seeded random row
// maps, a maximally interleaved map, and the Finite Element Machine's
// processor maps — with and without a pool, under both kernel paths.  A
// second test audits the plan's ranges and its views of the run storage
// and leftover rows row by row against the owner map and the CSR matrix,
// and the KernelLog census the plan counts from those views against the
// one counted from every CSR entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "census_reference.hpp"
#include "color/coloring.hpp"
#include "color/greedy.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "femsim/assignment.hpp"
#include "femsim/dist_solver.hpp"
#include "la/simd.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
#include "shard/partition.hpp"
#include "util/rng.hpp"

namespace mstep {
namespace {

using la::simd::SimdMode;
using la::simd::SimdModeGuard;

struct Case {
  std::string name;
  color::ColoredSystem cs;
};

/// The problems: plate and 3-D Poisson stencils (the latter's grid lines
/// break many offset stretches short of a run, so both layouts carry real
/// work), the CYBER plate, a greedy-coloured random band, and a plate whose
/// class 0 is empty.
std::vector<Case> cases() {
  auto& registry = problems::ProblemRegistry::instance();
  std::vector<Case> out;
  for (const char* spec : {"femplate:a=37", "poisson3d:n=11",
                           "cyberplate:a=20"}) {
    const problems::Problem p = registry.create(spec);
    out.push_back({spec, color::make_colored_system(p.matrix, p.classes)});
  }
  const problems::Problem band = registry.create("randspd:n=600:band=12");
  out.push_back({"randspd:n=600:band=12 (greedy)",
                 color::make_colored_system(
                     band.matrix,
                     color::greedy_classes_from_matrix(band.matrix))});
  const problems::Problem plate = registry.create("femplate:a=12");
  color::ColorClasses classes = plate.classes;
  classes.classes.insert(classes.classes.begin(), std::vector<index_t>{});
  out.push_back({"femplate:a=12 (empty class 0)",
                 color::make_colored_system(plate.matrix, classes)});
  return out;
}

/// One owner map of a case and the plan over it.
struct Partition {
  std::string name;
  std::vector<int> owner;
  std::shared_ptr<const core::MulticolorSweepPlan> plan;
};

/// The owner maps every check runs: 1-8 strips (one range per cell), then
/// seeded random row maps with 2-5 parts (many one-row ranges) and the
/// maximally interleaved map row i -> i mod 3 (every range one row).
std::vector<Partition> partitions(const color::ColoredSystem& cs) {
  std::vector<Partition> out;
  const auto add = [&](std::string name, std::vector<int> owner, int parts) {
    auto plan =
        std::make_shared<const core::MulticolorSweepPlan>(cs, owner, parts);
    out.push_back({std::move(name), std::move(owner), std::move(plan)});
  };
  for (int strips = 1; strips <= 8; ++strips) {
    const shard::ShardPlan plan = shard::ShardPlan::build(cs.class_start,
                                                          strips);
    add("strips=" + std::to_string(strips), plan.owners(), plan.num_shards());
  }
  util::Rng rng(41);
  for (int parts = 2; parts <= 5; ++parts) {
    std::vector<int> owner(static_cast<std::size_t>(cs.size()));
    for (int& o : owner) o = static_cast<int>(rng.uniform_index(parts));
    add("random parts=" + std::to_string(parts), std::move(owner), parts);
  }
  std::vector<int> interleaved(static_cast<std::size_t>(cs.size()));
  for (index_t i = 0; i < cs.size(); ++i) interleaved[i] = i % 3;
  add("i mod 3", std::move(interleaved), 3);
  return out;
}

/// Row i's strictly-lower (`lower`) or strictly-upper CSR entries: the
/// columns before its class's first row or from the next class's first row
/// on.
std::vector<index_t> segment(const color::ColoredSystem& cs, index_t i,
                             bool lower) {
  int c = 0;
  while (cs.class_start[c + 1] <= i) ++c;
  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();
  std::vector<index_t> entries;
  for (index_t t = rp[i]; t < rp[i + 1]; ++t) {
    if (lower ? col[t] < cs.class_start[c] : col[t] >= cs.class_start[c + 1]) {
      entries.push_back(t);
    }
  }
  return entries;
}

/// Algorithm 2 with the Conrad–Wallach vector y, on CSR segments.
Vec reference_apply(const color::ColoredSystem& cs,
                    const std::vector<double>& alphas, const Vec& r) {
  const index_t n = cs.size();
  const int nc = cs.num_classes();
  const int m = static_cast<int>(alphas.size());
  const la::CsrMatrix& k = cs.matrix;
  Vec diag(static_cast<std::size_t>(n), 0.0);
  std::vector<index_t> lo_end(static_cast<std::size_t>(n));
  std::vector<index_t> up_begin(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const std::vector<index_t> lo = segment(cs, i, true);
    const std::vector<index_t> up = segment(cs, i, false);
    lo_end[i] = k.row_ptr()[i] + static_cast<index_t>(lo.size());
    up_begin[i] = k.row_ptr()[i + 1] - static_cast<index_t>(up.size());
    for (index_t t = lo_end[i]; t < up_begin[i]; ++t) {
      if (k.col_idx()[t] == i) diag[i] = k.values()[t];
    }
  }
  const auto sum = [&](index_t b, index_t e, const Vec& z) {
    return la::simd::row_dot(k.values().data(), k.col_idx().data(), z.data(),
                             b, e);
  };

  Vec z(static_cast<std::size_t>(n), 0.0);
  Vec y(static_cast<std::size_t>(n), 0.0);
  for (int s = 1; s <= m; ++s) {
    const double a = alphas[m - s];
    // Forward: lower sums; class 0 also completes the previous step's
    // deferred backward update (y holds its upper sums).
    for (int c = 0; c < nc; ++c) {
      for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1]; ++i) {
        const double x = -sum(k.row_ptr()[i], lo_end[i], z);
        z[i] = (x + y[i] + a * r[i]) / diag[i];
        y[i] = c == nc - 1 ? 0.0 : x;
      }
    }
    // Backward over classes nc-2 .. 1: upper sums.
    for (int c = nc - 2; c >= 1; --c) {
      for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1]; ++i) {
        const double x = -sum(up_begin[i], k.row_ptr()[i + 1], z);
        z[i] = (x + y[i] + a * r[i]) / diag[i];
        y[i] = x;
      }
    }
    // Class 0: save its upper sums.
    for (index_t i = cs.class_start[0]; i < cs.class_start[1]; ++i) {
      y[i] = -sum(up_begin[i], k.row_ptr()[i + 1], z);
    }
  }
  for (index_t i = cs.class_start[0]; i < cs.class_start[1]; ++i) {
    z[i] = (y[i] + alphas[0] * r[i]) / diag[i];
  }
  return z;
}

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// `engine.apply(r)` under both kernel paths is bitwise `want`.
void expect_reference_bits(const core::MulticolorMStepSsor& engine,
                           const Vec& r, const Vec& want,
                           const std::string& where) {
  for (const SimdMode mode : {SimdMode::kForceScalar, SimdMode::kForceVector}) {
    const SimdModeGuard guard(mode);
    Vec z;
    engine.apply(r, z);
    EXPECT_TRUE(bitwise_equal(z, want))
        << where << " simd=" << la::simd::simd_isa();
  }
}

TEST(SweepReference, ApplyIsBitwiseTheHandWrittenAlgorithm) {
  const auto alphas = core::least_squares_alphas(4, core::ssor_interval());
  par::ThreadPool pool(4);
  for (const Case& c : cases()) {
    util::Rng rng(23);
    const Vec r = rng.uniform_vector(c.cs.size(), -1.0, 1.0);
    Vec want;
    {
      const SimdModeGuard guard(SimdMode::kForceScalar);
      want = reference_apply(c.cs, alphas, r);
    }
    for (const Partition& part : partitions(c.cs)) {
      // With the pool each phase is one dispatch; without it the parts
      // run inline, in order.
      for (par::ThreadPool* with : {&pool, static_cast<par::ThreadPool*>(
                                               nullptr)}) {
        expect_reference_bits(
            core::MulticolorMStepSsor(part.plan, alphas, with), r, want,
            c.name + " " + part.name + (with ? " pool" : " inline"));
      }
    }
  }
}

// femsim's Algorithm 3 runs this engine's phase body on each processor's
// part of the plan it builds over its processor map.  Those plans, run
// inline part by part, are the hand-written algorithm too: Figure 5's
// maps on the 60-equation plate (five column strips give one-row ranges)
// and a seeded random node map on a 9 x 10 plate.
TEST(SweepReference, FiniteElementMachinePlansAreTheHandWrittenAlgorithm) {
  const fem::Material mat;
  const fem::EdgeLoad load{1.0, 0.0};
  const fem::PlateMesh plate(6, 6);
  const fem::PlateMesh wide(9, 10);
  femsim::Assignment random = femsim::column_strips(wide, 3);
  random.nprocs = 6;
  util::Rng pick(2024);
  for (int& proc : random.proc_of_node) {
    if (proc >= 0) proc = 2 * proc + static_cast<int>(pick.uniform_index(2));
  }
  struct Machine {
    std::string name;
    const fem::PlateMesh* mesh;
    femsim::Assignment assignment;
  };
  const std::vector<Machine> machines = {
      {"P=1", &plate, femsim::row_bands(plate, 1)},
      {"P=2 row bands", &plate, femsim::row_bands(plate, 2)},
      {"P=5 column strips", &plate, femsim::column_strips(plate, 5)},
      {"P=6 random nodes", &wide, random}};
  for (const int m : {1, 2, 4}) {
    const auto alphas = core::least_squares_alphas(m, core::ssor_interval());
    for (const Machine& machine : machines) {
      const femsim::DistributedPlateSolver solver(*machine.mesh, mat, load,
                                                  machine.assignment);
      const color::ColoredSystem& cs = solver.colored_system();
      // The solver owns its plan: the engine shares it without owning it.
      const std::shared_ptr<const core::MulticolorSweepPlan> plan(
          std::shared_ptr<const void>(), &solver.sweep_plan());
      ASSERT_EQ(plan->num_parts(), machine.assignment.nprocs);
      util::Rng rng(7);
      const Vec r = rng.uniform_vector(cs.size(), -1.0, 1.0);
      Vec want;
      {
        const SimdModeGuard guard(SimdMode::kForceScalar);
        want = reference_apply(cs, alphas, r);
      }
      expect_reference_bits(core::MulticolorMStepSsor(plan, alphas), r, want,
                            machine.name + " m=" + std::to_string(m));
    }
  }
  // Figure 5's five column strips: every one of the 60 equations is a
  // range of its own, over 5 processors x 6 classes.
  const femsim::DistributedPlateSolver five(plate, mat, load,
                                            femsim::column_strips(plate, 5));
  const core::MulticolorSweepPlan& plan = five.sweep_plan();
  std::size_t ranges = 0;
  for (int p = 0; p < plan.num_parts(); ++p) {
    for (int c = 0; c < five.colored_system().num_classes(); ++c) {
      ranges += plan.ranges(p, c).size();
    }
  }
  EXPECT_EQ(five.colored_system().size(), 60);
  EXPECT_EQ(plan.cell_ranges.size(), 30u);
  EXPECT_EQ(ranges, 60u);
}

// The store must be cut at every range bound of the owner map, and the
// owner map must name a part in [0, parts) for every row.
TEST(SweepPlan, RejectsAStoreMissingARangeBoundAndABadOwnerMap) {
  const Case c = cases().front();
  const color::ColoredSystem& cs = c.cs;
  const auto n = static_cast<std::size_t>(cs.size());
  for (const Partition& part : partitions(cs)) {
    if (part.plan->num_parts() == 1) continue;
    const std::vector<index_t>& cuts = part.plan->store->cuts();
    // Its own cuts serve a second plan on the same map.
    EXPECT_NO_THROW(core::MulticolorSweepPlan(cs, part.owner,
                                              part.plan->num_parts(),
                                              part.plan->store))
        << part.name;
    // Each cut that bounds a range is needed: drop one (not a class
    // boundary, which every plan shares) and the plan refuses the store.
    for (std::size_t k = 1; k + 1 < cuts.size(); ++k) {
      if (std::binary_search(cs.class_start.begin(), cs.class_start.end(),
                             cuts[k])) {
        continue;
      }
      std::vector<index_t> missing = cuts;
      missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(k));
      const auto store = std::make_shared<const la::DiaMatrix>(
          la::DiaMatrix::from_csr(cs.matrix, missing));
      EXPECT_THROW(core::MulticolorSweepPlan(cs, part.owner,
                                             part.plan->num_parts(), store),
                   std::invalid_argument)
          << part.name << " without cut " << cuts[k];
      break;
    }
  }
  EXPECT_THROW(core::MulticolorSweepPlan(cs, std::vector<int>(n, 2), 2),
               std::invalid_argument);
  EXPECT_THROW(core::MulticolorSweepPlan(cs, std::vector<int>(n, -1), 2),
               std::invalid_argument);
  EXPECT_THROW(core::MulticolorSweepPlan(cs, std::vector<int>(n - 1, 0), 1),
               std::invalid_argument);
}

// Per owner map: the ranges of a class's parts cover each of its rows
// exactly once, in the row's own part, and bound on the store's cuts.  Per
// (part, class, half): every row of the part's ranges sits exactly once in
// a run or among the leftovers, every run spans at least one vector of
// rows, and each run row's viewed offsets and values — a term begin and a
// count over the plan's one store — are its CSR segment's columns and
// values in CSR order.
TEST(SweepLayout, RunsAndLeftoversCoverEveryRowExactly) {
  for (const Case& c : cases()) {
    const color::ColoredSystem& cs = c.cs;
    const auto& col = cs.matrix.col_idx();
    const auto& val = cs.matrix.values();
    const int nc = cs.num_classes();
    index_t run_rows = 0;
    index_t rest_rows = 0;
    for (const Partition& part : partitions(cs)) {
      const core::MulticolorSweepPlan& plan = *part.plan;
      const std::vector<index_t>& cuts = plan.store->cuts();
      std::vector<int> covered(static_cast<std::size_t>(cs.size()), 0);
      for (int s = 0; s < plan.num_parts(); ++s) {
        for (int k = 0; k < nc; ++k) {
          const std::string cell = c.name + " " + part.name + " s=" +
                                   std::to_string(s) + " c=" +
                                   std::to_string(k);
          std::vector<index_t> rows;
          for (const la::RowSpan& range : plan.ranges(s, k)) {
            ASSERT_GE(range.begin, cs.class_start[k]) << cell;
            ASSERT_LE(range.end, cs.class_start[k + 1]) << cell;
            ASSERT_LT(range.begin, range.end) << cell;
            ASSERT_TRUE(rows.empty() || rows.back() < range.begin) << cell;
            for (const index_t bound : {range.begin, range.end}) {
              EXPECT_TRUE(std::binary_search(cuts.begin(), cuts.end(), bound))
                  << cell << " bound " << bound;
            }
            for (index_t i = range.begin; i < range.end; ++i) {
              EXPECT_EQ(part.owner[i], s) << cell << " row " << i;
              ++covered[i];
              rows.push_back(i);
            }
          }
          for (const bool lower : {true, false}) {
            const std::string where = cell + (lower ? " lower" : " upper");
            const la::SweepSegments& segs =
                (lower ? plan.lower : plan.upper)[s * nc + k];
            std::vector<int> seen(static_cast<std::size_t>(cs.size()), 0);
            const auto mark = [&](index_t i) {
              ASSERT_TRUE(std::binary_search(rows.begin(), rows.end(), i))
                  << where << " row " << i;
              ++seen[i];
            };

            const la::simd::RunView runs = segs.runs();
            // A view of the plan's one store, not a copy.
            EXPECT_EQ(runs.val, plan.store->runs().val) << where;
            EXPECT_EQ(runs.off, plan.store->runs().off) << where;
            EXPECT_EQ(runs.col, plan.store->runs().col) << where;
            index_t in_runs = 0;
            for (index_t q = 0; q < runs.num_runs; ++q) {
              const index_t len = runs.len[q];
              EXPECT_GE(len, static_cast<index_t>(la::simd::kSellSlice))
                  << where;
              const index_t terms = runs.count[q];
              for (index_t t = 0; t < len; ++t) {
                const index_t i = runs.row[q] + t;
                mark(i);
                const std::vector<index_t> entries = segment(cs, i, lower);
                ASSERT_EQ(static_cast<index_t>(entries.size()), terms)
                    << where << " row " << i;
                for (index_t j = 0; j < terms; ++j) {
                  EXPECT_EQ(i + runs.off[runs.off_at[q] + j],
                            col[entries[j]])
                      << where << " row " << i;
                  const double v =
                      runs.val[runs.col[runs.off_at[q] + j] + t];
                  EXPECT_EQ(std::memcmp(&v, &val[entries[j]], sizeof v), 0)
                      << where << " row " << i;
                }
              }
              in_runs += len;
            }
            EXPECT_EQ(in_runs, segs.run_rows()) << where;

            const la::simd::SellView rest = segs.rest().view();
            const index_t slots =
                rest.num_slices * static_cast<index_t>(la::simd::kSellSlice);
            for (index_t slot = 0; slot < slots; ++slot) {
              if (rest.perm[slot] >= 0) mark(rest.perm[slot]);
            }
            for (const index_t i : rows) {
              EXPECT_EQ(seen[i], 1) << where << " row " << i;
            }
            if (part.name == "strips=1") {
              run_rows += in_runs;
              rest_rows += static_cast<index_t>(rows.size()) - in_runs;
            }
          }
        }
      }
      for (index_t i = 0; i < cs.size(); ++i) {
        EXPECT_EQ(covered[i], 1) << c.name << " " << part.name << " row " << i;
      }
    }
    EXPECT_GT(run_rows, 0) << c.name;
    if (c.name == "poisson3d:n=11") {
      EXPECT_GT(rest_rows, 0) << "both layouts carry rows";
    }
  }
}

// The plan counts each class's distinct nonzero offsets from its run
// terms and leftover rows; the count must be the reference census over
// every CSR entry (one std::set of offsets per class and half).  Every catalog problem (its own classes, else greedy ones),
// the cases above, and a plate with explicit zeros: one offset zero in
// every row of a class (not counted unless another row holds it nonzero),
// and single zero or -0.0 entries inside runs (the offset still counts).
TEST(SweepLayout, CensusFromTheSegmentsIsTheCsrCensus) {
  auto& registry = problems::ProblemRegistry::instance();
  std::vector<Case> systems = cases();
  for (const std::string& name : registry.names()) {
    const problems::Problem p = registry.create(name);
    systems.push_back(
        {name, color::make_colored_system(
                   p.matrix, p.has_classes()
                                 ? p.classes
                                 : color::greedy_classes_from_matrix(
                                       p.matrix))});
  }
  const problems::Problem plate = registry.create("femplate:a=16");
  color::ColoredSystem zeros =
      color::make_colored_system(plate.matrix, plate.classes);
  {
    const auto& rp = zeros.matrix.row_ptr();
    const auto& col = zeros.matrix.col_idx();
    auto& val = zeros.matrix.values();
    // Class 2: every entry at the first row's first offset becomes zero.
    const index_t first = zeros.class_start[2];
    const index_t offset = col[rp[first]] - first;
    for (index_t i = first; i < zeros.class_start[3]; ++i) {
      for (index_t t = rp[i]; t < rp[i + 1]; ++t) {
        if (col[t] - i == offset) val[t] = 0.0;
      }
    }
    // Class 4: scattered single zeros and -0.0.
    for (index_t i = zeros.class_start[4]; i < zeros.class_start[5]; i += 7) {
      val[rp[i]] = i % 2 == 0 ? 0.0 : -0.0;
    }
  }
  systems.push_back({"femplate:a=16 (explicit zeros)", std::move(zeros)});

  for (const Case& c : systems) {
    const color::ClassDiagonalCensus want = reference::census_by_sets(
        c.cs, color::compute_row_splits(c.cs));
    for (const Partition& part : partitions(c.cs)) {
      EXPECT_EQ(part.plan->census.lower, want.lower)
          << c.name << " " << part.name;
      EXPECT_EQ(part.plan->census.upper, want.upper)
          << c.name << " " << part.name;
    }
  }
}

}  // namespace
}  // namespace mstep
