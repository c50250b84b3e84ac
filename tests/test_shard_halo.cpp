// The shard partitioner and the halo census, unit level: equal contiguous
// strips per color block with the femsim equal-strip rule, clamping, EXACT
// ghost sets (brute-forced from the matrix graph — no row no phase reads,
// none missing) on a 9-point stencil and the paper's FEM plate, and legal
// empty-boundary shards.
#include <gtest/gtest.h>

#include <algorithm>
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
      if (s > 0) ASSERT_EQ(plan.begin(s, c), plan.end(s - 1, c));
      const index_t size = plan.end(s, c) - plan.begin(s, c);
      ASSERT_GE(size, len / 4);
      ASSERT_LE(size, (len + 3) / 4);
      covered += size;
      for (index_t i = plan.begin(s, c); i < plan.end(s, c); ++i) {
        ASSERT_EQ(plan.owner_of(i), s) << "row " << i;
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

// Brute-force the ghost sets straight from the matrix graph and the sweep
// structure: a shard needs EXACTLY the off-shard rows its strictly-lower
// sums read (every class) and its strictly-upper sums read (every class
// except the last — the backward recursion never sums the last class's
// upper block), nothing more and nothing less.
void expect_exact_halo(const std::string& spec, int shards) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create(spec);
  ASSERT_TRUE(p.has_classes()) << spec;
  const auto cs = color::make_colored_system(p.matrix, p.classes);
  const auto splits = color::compute_row_splits(cs);
  const ShardPlan plan = ShardPlan::build(cs.class_start, shards);
  ASSERT_EQ(plan.num_shards(), shards) << spec;
  const HaloPlan halo(cs, plan, splits);

  const int ns = plan.num_shards();
  const int nc = plan.num_classes();
  const std::vector<index_t>& rp = cs.matrix.row_ptr();
  const std::vector<index_t>& col = cs.matrix.col_idx();

  std::vector<std::set<index_t>> expected(
      static_cast<std::size_t>(ns) * ns * nc);
  for (index_t i = 0; i < cs.size(); ++i) {
    const int s = plan.owner_of(i);
    const int ci = class_of_row(cs.class_start, i);
    auto visit = [&](index_t a, index_t b) {
      for (index_t k = a; k < b; ++k) {
        const index_t j = col[k];
        const int t = plan.owner_of(j);
        if (t == s) continue;
        const int cj = class_of_row(cs.class_start, j);
        expected[(static_cast<std::size_t>(s) * ns + t) * nc + cj].insert(j);
      }
    };
    visit(rp[i], splits.lo_end[i]);  // lower sums: read by every class
    if (ci != nc - 1) {
      // Upper sums: the last class's upper block is never summed (the
      // backward phases stop before it), so fetching it would be
      // over-fetch — exactly what this test guards.
      visit(splits.up_begin[i], rp[i + 1]);
    }
  }

  std::size_t total_edges = 0;
  for (int to = 0; to < ns; ++to) {
    std::size_t ghost = 0;
    for (int from = 0; from < ns; ++from) {
      for (int c = 0; c < nc; ++c) {
        const auto& want =
            expected[(static_cast<std::size_t>(to) * ns + from) * nc + c];
        const auto& got = halo.recv_rows(to, from, c);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_EQ(std::set<index_t>(got.begin(), got.end()).size(),
                  got.size());
        ASSERT_EQ(std::vector<index_t>(want.begin(), want.end()), got)
            << spec << " to=" << to << " from=" << from << " class=" << c;
        ghost += got.size();
        if (!got.empty()) ++total_edges;
      }
    }
    ASSERT_EQ(halo.ghost_count(to), ghost) << spec << " shard " << to;
  }
  ASSERT_GT(total_edges, 0u) << spec << ": a connected stencil must halo";
}

TEST(HaloPlan, GhostSetsAreExactOnStencil9) {
  expect_exact_halo("stencil9:n=9", 3);
  expect_exact_halo("stencil9:nx=11:ny=7", 4);
}

TEST(HaloPlan, GhostSetsAreExactOnFemPlate) {
  expect_exact_halo("femplate:a=6", 3);
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
  const auto splits = color::compute_row_splits(cs);
  const ShardPlan plan = ShardPlan::build(cs.class_start, 4);
  const HaloPlan halo(cs, plan, splits);
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(halo.ghost_count(s), 0u);
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
