// The shard partitioner and the halo census, unit level: equal contiguous
// strips per color block with the femsim equal-strip rule, clamping, EXACT
// ghost sets and neighbour lists (brute-forced from the matrix graph: every
// stored off-part column of every owned row, none missing) on a 9-point
// stencil and the paper's FEM plate for strips and seeded random owner
// maps, rejected bad owner maps, and legal empty-boundary shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "la/csr_matrix.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
#include "shard/halo.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_sweep.hpp"
#include "util/rng.hpp"

namespace mstep::shard {
namespace {

// ---- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, EqualStripsPerClassWithFemsimRule) {
  // Two classes of 10 and 17 rows, 4 shards: every class is cut into 4
  // contiguous strips whose sizes differ by at most one, strips
  // concatenate exactly, and the k-th of len rows goes to shard
  // k * shards / len — the femsim::coordinate_strip_owner rule.
  const std::vector<index_t> class_start = {0, 10, 27};
  const ShardPlan plan = ShardPlan::build(class_start, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  ASSERT_EQ(plan.num_classes(), 2);
  ASSERT_EQ(plan.rows(), 27);

  for (int c = 0; c < plan.num_classes(); ++c) {
    const index_t len = class_start[c + 1] - class_start[c];
    index_t covered = 0;
    ASSERT_EQ(plan.begin(0, c), class_start[c]);
    ASSERT_EQ(plan.end(plan.num_shards() - 1, c), class_start[c + 1]);
    for (int s = 0; s < plan.num_shards(); ++s) {
      ASSERT_LE(plan.begin(s, c), plan.end(s, c));
      if (s > 0) {
        ASSERT_EQ(plan.begin(s, c), plan.end(s - 1, c));
      }
      const index_t size = plan.end(s, c) - plan.begin(s, c);
      ASSERT_GE(size, len / 4);
      ASSERT_LE(size, (len + 3) / 4);
      covered += size;
      for (index_t i = plan.begin(s, c); i < plan.end(s, c); ++i) {
        ASSERT_EQ(plan.owners()[i], s) << "row " << i;
        ASSERT_EQ(static_cast<int>((i - class_start[c]) * 4 / len), s)
            << "femsim strip rule, row " << i;
      }
    }
    ASSERT_EQ(covered, len);
  }
}

TEST(ShardPlan, ClampsToWidestClassAndRejectsBadInput) {
  // Widest class has 5 rows: a request for 64 shards clamps to 5; a
  // class narrower than the effective count keeps (legal) empty strips.
  const std::vector<index_t> class_start = {0, 2, 7};
  const ShardPlan plan = ShardPlan::build(class_start, 64);
  ASSERT_EQ(plan.num_shards(), 5);
  int empty = 0;
  for (int s = 0; s < 5; ++s) {
    if (plan.begin(s, 0) == plan.end(s, 0)) ++empty;
  }
  ASSERT_EQ(empty, 3);  // class 0 has 2 rows for 5 shards

  ASSERT_EQ(ShardPlan::build(class_start, 0).num_shards(), 1);
  ASSERT_EQ(ShardPlan::build(class_start, -3).num_shards(), 1);
  ASSERT_THROW(ShardPlan::build({}, 2), std::invalid_argument);
  ASSERT_THROW(ShardPlan::build({0}, 2), std::invalid_argument);
}

// ---- HaloPlan exactness -----------------------------------------------------

int class_of_row(const std::vector<index_t>& class_start, index_t row) {
  int c = 0;
  while (class_start[c + 1] <= row) ++c;
  return c;
}

// Brute-force the ghost sets straight from the matrix graph: part s reads
// EXACTLY the off-part columns stored in its rows — the product reads
// every one, the sweeps the strictly-lower and strictly-upper ones, and
// a valid colouring's diagonal class blocks hold only the diagonal —
// nothing more and nothing less.  The neighbours of s are the parts it
// reads from or is read by, which makes the relation symmetric.
void expect_exact_halo(const color::ColoredSystem& cs,
                       const std::vector<int>& owner, int parts,
                       const HaloPlan& halo, const std::string& what) {
  const int nc = cs.num_classes();
  const std::vector<index_t>& rp = cs.matrix.row_ptr();
  const std::vector<index_t>& col = cs.matrix.col_idx();

  std::vector<std::set<index_t>> expected(
      static_cast<std::size_t>(parts) * parts * nc);
  for (index_t i = 0; i < cs.size(); ++i) {
    const int s = owner[i];
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = col[k];
      const int t = owner[j];
      if (t == s) continue;
      const int cj = class_of_row(cs.class_start, j);
      expected[(static_cast<std::size_t>(s) * parts + t) * nc + cj].insert(j);
    }
  }

  std::vector<std::set<int>> linked(parts);
  for (int to = 0; to < parts; ++to) {
    std::size_t ghost = 0;
    for (int from = 0; from < parts; ++from) {
      for (int c = 0; c < nc; ++c) {
        const auto& want =
            expected[(static_cast<std::size_t>(to) * parts + from) * nc + c];
        const auto& got = halo.recv_rows(to, from, c);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_EQ(std::set<index_t>(got.begin(), got.end()).size(),
                  got.size());
        ASSERT_EQ(std::vector<index_t>(want.begin(), want.end()), got)
            << what << " to=" << to << " from=" << from << " class=" << c;
        ghost += got.size();
        if (!got.empty()) {
          linked[to].insert(from);
          linked[from].insert(to);
        }
      }
    }
    ASSERT_EQ(halo.ghost_count(to), ghost) << what << " part " << to;
  }
  for (int s = 0; s < parts; ++s) {
    ASSERT_EQ(std::vector<int>(linked[s].begin(), linked[s].end()),
              halo.neighbors(s))
        << what << " part " << s;
    for (const int t : halo.neighbors(s)) {
      const auto& back = halo.neighbors(t);
      ASSERT_TRUE(std::find(back.begin(), back.end(), s) != back.end())
          << what << ": " << s << " lists " << t << " but not back";
    }
  }
}

void expect_exact_strip_halo(const std::string& spec, int shards) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create(spec);
  ASSERT_TRUE(p.has_classes()) << spec;
  const auto cs = color::make_colored_system(p.matrix, p.classes);
  const ShardPlan plan = ShardPlan::build(cs.class_start, shards);
  ASSERT_EQ(plan.num_shards(), shards) << spec;
  const HaloPlan halo(cs, plan.owners(), plan.num_shards());
  expect_exact_halo(cs, plan.owners(), shards, halo, spec);
  std::size_t ghost = 0;
  for (int s = 0; s < shards; ++s) ghost += halo.ghost_count(s);
  ASSERT_GT(ghost, 0u) << spec << ": a connected stencil must halo";
}

TEST(HaloPlan, GhostSetsAreExactOnStencil9) {
  expect_exact_strip_halo("stencil9:n=9", 3);
  expect_exact_strip_halo("stencil9:nx=11:ny=7", 4);
}

TEST(HaloPlan, GhostSetsAreExactOnFemPlate) {
  expect_exact_strip_halo("femplate:a=6", 3);
}

// Any owner map, not just strips: seeded random maps with 1..5 parts, the
// last part left without a single row on every other seed.
TEST(HaloPlan, GhostSetsAreExactForRandomOwnerMaps) {
  for (const char* spec : {"stencil9:n=9", "femplate:a=6"}) {
    const problems::Problem p =
        problems::ProblemRegistry::instance().create(spec);
    const auto cs = color::make_colored_system(p.matrix, p.classes);
    for (int parts = 1; parts <= 5; ++parts) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Rng rng(seed * 31 + static_cast<std::uint64_t>(parts));
        const bool idle_part = parts >= 2 && seed % 2 == 0;
        const auto drawn = static_cast<std::uint64_t>(parts - idle_part);
        std::vector<int> owner(cs.size());
        for (auto& o : owner) o = static_cast<int>(rng.uniform_index(drawn));
        const HaloPlan halo(cs, owner, parts);
        const std::string what = std::string(spec) + " parts=" +
                                 std::to_string(parts) +
                                 " seed=" + std::to_string(seed);
        expect_exact_halo(cs, owner, parts, halo, what);
        if (idle_part) {
          ASSERT_EQ(halo.ghost_count(parts - 1), 0u) << what;
          ASSERT_TRUE(halo.neighbors(parts - 1).empty()) << what;
        }
      }
    }
  }
}

TEST(HaloPlan, RejectsBadOwnerMaps) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("stencil9:n=5");
  const auto cs = color::make_colored_system(p.matrix, p.classes);
  std::vector<int> owner(cs.size(), 0);
  EXPECT_THROW(HaloPlan(cs, std::vector<int>(cs.size() - 1, 0), 2),
               std::invalid_argument);
  owner.back() = 2;
  EXPECT_THROW(HaloPlan(cs, owner, 2), std::invalid_argument);
  owner.back() = -1;
  EXPECT_THROW(HaloPlan(cs, owner, 2), std::invalid_argument);
  owner.back() = 0;
  EXPECT_THROW(HaloPlan(cs, owner, 0), std::invalid_argument);
  EXPECT_NO_THROW(HaloPlan(cs, owner, 2));
}

// ---- empty-boundary shards --------------------------------------------------

// A block-diagonal system whose blocks never straddle a shard boundary
// has NO halo at all; the plan must say so (every edge empty) and the
// sharded sweep must still run — bitwise the serial sweep.
TEST(HaloPlan, EmptyBoundaryShardsAreLegal) {
  // 16 independent 1x1 "blocks": a diagonal matrix, two artificial color
  // classes (evens/odds) — a valid coloring, since there is no coupling
  // anywhere.
  const index_t n = 16;
  std::vector<index_t> rp(n + 1), ci(n);
  std::vector<double> v(n);
  for (index_t i = 0; i <= n; ++i) rp[i] = i;
  for (index_t i = 0; i < n; ++i) {
    ci[i] = i;
    v[i] = 2.0 + 0.25 * static_cast<double>(i);
  }
  const la::CsrMatrix k(n, n, std::move(rp), std::move(ci), std::move(v));
  color::ColorClasses classes;
  classes.classes.resize(2);
  for (index_t i = 0; i < n; ++i) {
    classes.classes[i % 2].push_back(i);
  }
  const auto cs = color::make_colored_system(k, classes);
  const ShardPlan plan = ShardPlan::build(cs.class_start, 4);
  const HaloPlan halo(cs, plan.owners(), plan.num_shards());
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(halo.ghost_count(s), 0u);
    ASSERT_TRUE(halo.neighbors(s).empty());
    for (int c = 0; c < 2; ++c) {
      for (int t = 0; t < 4; ++t) {
        ASSERT_TRUE(halo.recv_rows(s, t, c).empty());
      }
    }
  }

  const std::vector<double> alphas = {1.0, 0.6};
  par::ThreadPool pool(4);
  const core::MulticolorMStepSsor serial(cs, alphas);
  const ShardedMulticolorMStepSsor sharded(cs, alphas, plan, pool);
  util::Rng rng(3);
  const Vec r = rng.uniform_vector(n);
  Vec z1, z2;
  serial.apply(r, z1);
  sharded.apply(r, z2);
  ASSERT_EQ(z1, z2);
}

}  // namespace
}  // namespace mstep::shard
