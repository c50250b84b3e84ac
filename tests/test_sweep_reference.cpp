// An independent check of the Algorithm-2 sweep's bits and storage.
//
// The other sweep checks compare the engine with itself: SIMD on against
// off, N strips against one, the block path against the single-vector
// path.  A storage bug that moved every path alike would pass them all.
// Here Algorithm 2 is written out by hand on plain CSR row segments, each
// sum one la::simd::row_dot call, and MulticolorMStepSsor::apply must
// match it bit for bit at 1-8 strips, with and without a pool, under
// both kernel paths.  A second test audits the plan's views of the run
// storage and its leftover rows row by row against the CSR matrix, and
// the KernelLog census the plan counts from those views against the one
// counted from every CSR entry.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "census_reference.hpp"
#include "color/coloring.hpp"
#include "color/greedy.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "la/simd.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
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
    for (int strips = 1; strips <= 8; ++strips) {
      const auto plan = std::make_shared<const core::MulticolorSweepPlan>(
          c.cs, alphas, strips);
      // With the pool each phase is one dispatch; without it the strips
      // run inline, in order.
      for (par::ThreadPool* with : {&pool, static_cast<par::ThreadPool*>(
                                               nullptr)}) {
        const core::MulticolorMStepSsor engine(plan, with);
        for (const SimdMode mode :
             {SimdMode::kForceScalar, SimdMode::kForceVector}) {
          const SimdModeGuard guard(mode);
          Vec z;
          engine.apply(r, z);
          EXPECT_TRUE(bitwise_equal(z, want))
              << c.name << " strips=" << strips
              << (with ? " pool" : " inline")
              << " simd=" << la::simd::simd_isa();
        }
      }
    }
  }
}

// Per (strip, class, half): every row of the strip's class sits exactly
// once in a run or among the leftovers, every run spans at least one
// vector of rows, and each run row's viewed offsets and values — a term
// begin and a count over the plan's one store — are its CSR segment's
// columns and values in CSR order.
TEST(SweepLayout, RunsAndLeftoversCoverEveryRowExactly) {
  const auto alphas = core::least_squares_alphas(2, core::ssor_interval());
  for (const Case& c : cases()) {
    const color::ColoredSystem& cs = c.cs;
    const auto& col = cs.matrix.col_idx();
    const auto& val = cs.matrix.values();
    index_t run_rows = 0;
    index_t rest_rows = 0;
    for (int strips = 1; strips <= 4; ++strips) {
      const core::MulticolorSweepPlan plan(cs, alphas, strips);
      const int nc = cs.num_classes();
      for (int s = 0; s < plan.num_strips(); ++s) {
        for (int k = 0; k < nc; ++k) {
          for (const bool lower : {true, false}) {
            const std::string where =
                c.name + " strips=" + std::to_string(strips) + " s=" +
                std::to_string(s) + " c=" + std::to_string(k) +
                (lower ? " lower" : " upper");
            const la::SweepSegments& segs =
                (lower ? plan.lower : plan.upper)[s * nc + k];
            const index_t b = plan.strips.begin(s, k);
            const index_t e = plan.strips.end(s, k);
            std::vector<int> seen(static_cast<std::size_t>(e - b), 0);
            const auto mark = [&](index_t i) {
              ASSERT_GE(i, b) << where;
              ASSERT_LT(i, e) << where;
              ++seen[i - b];
            };

            const la::simd::RunView runs = segs.runs();
            // A view of the plan's one store, not a copy.
            EXPECT_EQ(runs.val, plan.store->runs().val) << where;
            EXPECT_EQ(runs.off, plan.store->runs().off) << where;
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
                      runs.val[runs.val_at[q] + j * len + t];
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
            for (std::size_t t = 0; t < seen.size(); ++t) {
              EXPECT_EQ(seen[t], 1) << where << " row " << b + t;
            }
            if (strips == 1) {
              run_rows += in_runs;
              rest_rows += e - b - in_runs;
            }
          }
        }
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

  const auto alphas = core::least_squares_alphas(1, core::ssor_interval());
  for (const Case& c : systems) {
    const color::ClassDiagonalCensus want = reference::census_by_sets(
        c.cs, color::compute_row_splits(c.cs));
    for (int strips = 1; strips <= 4; ++strips) {
      const core::MulticolorSweepPlan plan(c.cs, alphas, strips);
      EXPECT_EQ(plan.census.lower, want.lower)
          << c.name << " strips=" << strips;
      EXPECT_EQ(plan.census.upper, want.upper)
          << c.name << " strips=" << strips;
    }
  }
}

}  // namespace
}  // namespace mstep
