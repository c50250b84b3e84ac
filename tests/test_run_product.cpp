// The run storage's products (la::DiaMatrix: constant-offset row runs plus
// the source CSR rows outside them) against CsrMatrix::multiply, bit for
// bit, on both kernel paths: the AVX2 kernel == its portable twin == the
// CSR row sums.
//
// The matrix is built to hit every corner of the layout: runs of every
// length from 4 up (4-row bodies and masked tails), stretches of 1-3 rows
// that stay outside runs, rows with no terms inside and outside runs,
// explicit zeros, and -0.0, +-inf and NaN couplings.  Each row holds at
// most one non-finite product: IEEE 754 leaves open which payload NaN +
// NaN keeps, and a compiler may commute a scalar add, so no kernel can
// promise those bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "color/coloring.hpp"
#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "la/simd.hpp"
#include "la/sweep_segments.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_operator.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep {
namespace {

using la::simd::SimdMode;
using la::simd::SimdModeGuard;

constexpr std::size_t kW = la::simd::kSellSlice;

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// `kernel` under the forced scalar path and the vector path; both must
/// write the same bits.  Returns the result.
Vec both_paths(const std::function<Vec()>& kernel, const std::string& what) {
  Vec scalar_out;
  {
    const SimdModeGuard guard(SimdMode::kForceScalar);
    scalar_out = kernel();
  }
  const SimdModeGuard guard(SimdMode::kForceVector);
  const Vec vector_out = kernel();
  EXPECT_TRUE(bitwise_equal(scalar_out, vector_out)) << what;
  return vector_out;
}

/// Stretches of rows sharing one offset list, in order: lengths 4-13 make
/// runs, 1-3 go to the short (copied) rest, and the listed empty stretches
/// store no term at all; then kLongRest rows alternating between two offset
/// lists, a rest stretch long enough to be read in place.  Offsets near the
/// ends are dropped where they leave the matrix, which breaks those
/// stretches up further.
constexpr index_t kLongRest = la::DiaMatrix::kInPlaceRows + 6;

la::CsrMatrix corner_matrix() {
  const index_t stretch[] = {4, 1, 6, 2, 9, 3, 5, 13, 4, 2, 7, 1, 1, 8, 3,
                             4, 11, 2, 5, 10, 6, 1, 4};
  const bool empty[] = {false, false, false, false, false, true, false,
                        false, true,  true,  false, false, false, false,
                        false, false, false, false, true, false, false,
                        false, false};
  util::Rng rng(41);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {inf, -inf,
                             std::numeric_limits<double>::quiet_NaN()};
  index_t n = kLongRest;
  for (const index_t s : stretch) n += s;

  std::vector<index_t> rp{0};
  std::vector<index_t> col;
  Vec val;
  index_t i = 0;
  const auto emit_row = [&](const std::vector<index_t>& offsets) {
    std::size_t placed = 0;
    for (const index_t o : offsets) {
      if (i + o < 0 || i + o >= n) continue;
      col.push_back(i + o);
      double v = rng.uniform(-1.0, 1.0);
      if (placed % 5 == 1) v = -0.0;
      if (placed % 5 == 3) v = 0.0;  // an explicit zero stays stored
      if (placed == 2 && i % 3 == 0) v = specials[(i / 3) % 3];
      val.push_back(v);
      ++placed;
    }
    rp.push_back(static_cast<index_t>(col.size()));
    ++i;
  };
  for (std::size_t s = 0; s < std::size(stretch); ++s) {
    // 1-17 distinct offsets in [-20, 20], ascending (CSR column order).
    std::vector<index_t> offsets;
    if (!empty[s]) {
      const auto terms = static_cast<index_t>(1 + (s * 5) % 17);
      for (index_t o = -20; o <= 20; ++o) {
        if (static_cast<index_t>(offsets.size()) < terms &&
            rng.uniform(0.0, 1.0) < 0.55) {
          offsets.push_back(o);
        }
      }
    }
    for (index_t t = 0; t < stretch[s]; ++t) emit_row(offsets);
  }
  for (index_t t = 0; t < kLongRest; ++t) {
    emit_row(t % 2 == 0 ? std::vector<index_t>{-9, -3, 0, 2, 11}
                        : std::vector<index_t>{-2, 0, 5, 9, 10, 12});
  }
  return la::CsrMatrix(n, n, std::move(rp), std::move(col), std::move(val));
}

/// A finite x with scattered -0.0 entries.
Vec make_x(util::Rng& rng, index_t n) {
  Vec x = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  for (index_t i = 0; i < n; i += 7) x[i] = -0.0;
  return x;
}

/// The reference: CsrMatrix::multiply / multiply_sub on the portable path.
Vec csr_product(const la::CsrMatrix& a, const Vec& x, const Vec& y0,
                bool subtract) {
  const SimdModeGuard guard(SimdMode::kForceScalar);
  Vec y = y0;
  if (subtract) {
    a.multiply_sub(x, y);
  } else {
    a.multiply(x, y);
  }
  return y;
}

TEST(RunProduct, LayoutCoversEveryRowAndRespectsTheCuts) {
  const la::CsrMatrix a = corner_matrix();
  const index_t n = a.rows();
  const std::vector<index_t> cuts{0, 7, 8, 30, 31, 64, n};
  const la::DiaMatrix d = la::DiaMatrix::from_csr(a, cuts);
  EXPECT_EQ(d.cuts(), cuts);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  const auto& rp = a.row_ptr();
  const la::simd::RunView runs = d.runs();
  for (index_t q = 0; q < runs.num_runs; ++q) {
    EXPECT_GE(runs.len[q], la::DiaMatrix::kMinRun);
    for (const index_t c : cuts) {
      EXPECT_FALSE(runs.row[q] < c && c < runs.row[q] + runs.len[q])
          << "run " << q << " crosses cut " << c;
    }
    // Term k of every run row: its CSR column and its CSR value's bits,
    // read through the one addressing rule.
    for (index_t t = 0; t < runs.len[q]; ++t) {
      const index_t i = runs.row[q] + t;
      ++seen[i];
      ASSERT_EQ(rp[i + 1] - rp[i], runs.count[q]) << "row " << i;
      for (index_t k = 0; k < runs.count[q]; ++k) {
        const index_t term = runs.off_at[q] + k;
        EXPECT_EQ(i + runs.off[term], a.col_idx()[rp[i] + k]) << "row " << i;
        const double v = runs.val[runs.col[term] + t];
        EXPECT_EQ(std::memcmp(&v, &a.values()[rp[i] + k], sizeof v), 0)
            << "row " << i << " term " << k;
      }
    }
  }
  // The rest stretches ascend, are maximal (never adjacent) and hold the
  // rows no run covers; the short ones are copied, the long one is not.
  index_t rest_rows = 0;
  bool empty_rest_row = false;
  int in_place = 0;
  for (std::size_t r = 0; r < d.rest().size(); ++r) {
    const auto [b, e, copy] = d.rest()[r];
    EXPECT_LT(b, e);
    if (r > 0) {
      EXPECT_LT(d.rest()[r - 1].end, b);
    }
    EXPECT_EQ(copy < 0, e - b >= la::DiaMatrix::kInPlaceRows);
    in_place += copy < 0 ? 1 : 0;
    for (index_t g = b; g < e; ++g) {
      ++seen[g];
      empty_rest_row = empty_rest_row || rp[g] == rp[g + 1];
    }
    rest_rows += e - b;
  }
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << "row " << i;
  EXPECT_EQ(in_place, 1);
  EXPECT_LT(rest_rows, n / 2 + kLongRest);
  // Rows with no terms sit both in a run and among the rest.
  EXPECT_NE(std::find(runs.count, runs.count + runs.num_runs, 0),
            runs.count + runs.num_runs);
  EXPECT_TRUE(empty_rest_row);

  EXPECT_THROW((void)la::DiaMatrix::from_csr(a, {1, n}),
               std::invalid_argument);
  EXPECT_THROW((void)la::DiaMatrix::from_csr(a, {0, 9, 4, n}),
               std::invalid_argument);
  EXPECT_THROW((void)la::DiaMatrix::from_csr(a, {0, n - 1}),
               std::invalid_argument);
}

TEST(RunProduct, MultiplyIsBitwiseCsrOnBothPaths) {
  const la::CsrMatrix a = corner_matrix();
  const index_t n = a.rows();
  util::Rng rng(3);
  const Vec x = make_x(rng, n);
  const Vec y0 = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  for (const auto& cuts :
       {std::vector<index_t>{}, std::vector<index_t>{0, 5, 6, 33, 90, 150, n}}) {
    const la::DiaMatrix d = la::DiaMatrix::from_csr(a, cuts);
    const la::DiaOperator op(d);
    for (const bool subtract : {false, true}) {
      const std::string what = std::to_string(cuts.size()) + " cuts" +
                               (subtract ? " multiply_sub" : " multiply");
      const Vec out = both_paths(
          [&] {
            Vec y = y0;
            if (subtract) {
              op.multiply_sub(x, y);
            } else {
              op.multiply(x, y);
            }
            return y;
          },
          what);
      EXPECT_TRUE(bitwise_equal(out, csr_product(a, x, y0, subtract)))
          << what;
    }
  }
}

/// A NaN with `payload` in its low bits.
double nan_with(std::uint64_t payload) {
  const std::uint64_t bits = 0x7ff8000000000000ULL | payload;
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Column c of `block` (n x kW, row-interleaved) as a vector.
Vec block_column(const Vec& block, std::size_t c) {
  Vec v(block.size() / kW);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = block[i * kW + c];
  return v;
}

// Value columns are shared only when their bits match.  Four runs of 8 rows
// on one diagonal column and one coupling column each: the diagonal
// columns are equal in every bit and stored once; the coupling columns of
// runs 0 and 1 compare == but differ in one zero's sign, those of runs 2
// and 3 differ only in a NaN's payload, and all four are kept.  A store
// keyed on == would merge runs 0 and 1; one that takes NaNs as equal would
// merge runs 2 and 3 and give run 3's row run 2's NaN.
TEST(RunProduct, ColumnsThatDifferInBitsAreNeverShared) {
  const index_t n = 32;
  std::vector<index_t> rp{0};
  std::vector<index_t> col;
  Vec val;
  for (index_t i = 0; i < n; ++i) {
    const index_t run = i / 8;
    const index_t t = i % 8;
    double w = -0.5 - 0.125 * t;
    if (t == 3) w = run == 1 ? -0.0 : 0.0;
    if (t == 5 && run >= 2) w = nan_with(run == 2 ? 1 : 2);
    const index_t j = (i + 8) % n;
    const double d = 2.0 + 0.25 * t;
    col.insert(col.end(), {std::min(i, j), std::max(i, j)});
    val.insert(val.end(), {i < j ? d : w, i < j ? w : d});
    rp.push_back(static_cast<index_t>(col.size()));
  }
  const la::CsrMatrix a(n, n, std::move(rp), std::move(col), std::move(val));
  const la::DiaMatrix d = la::DiaMatrix::from_csr(a, {0, 8, 16, 24, n});
  ASSERT_EQ(d.runs().num_runs, 4);
  EXPECT_EQ(d.held_values(), 5u * 8u);
  EXPECT_EQ(d.stored_values(), static_cast<std::size_t>(a.nnz()));
  const la::simd::RunView runs = d.runs();
  for (index_t q = 0; q < runs.num_runs; ++q) {
    for (index_t k = 0; k < runs.count[q]; ++k) {
      const index_t term = runs.off_at[q] + k;
      for (index_t t = 0; t < runs.len[q]; ++t) {
        const index_t i = runs.row[q] + t;
        const double v = runs.val[runs.col[term] + t];
        EXPECT_EQ(std::memcmp(&v, &a.values()[a.row_ptr()[i] + k], sizeof v),
                  0)
            << "run " << q << " term " << k << " row " << i;
      }
    }
  }

  util::Rng rng(23);
  const Vec x = make_x(rng, n);
  const Vec want = csr_product(a, x, Vec(n, 0.0), false);
  const Vec out = both_paths(
      [&] {
        Vec y;
        d.multiply(x, y);
        return y;
      },
      "multiply");
  EXPECT_TRUE(bitwise_equal(out, want)) << "multiply";

  const auto nn = static_cast<std::size_t>(n);
  const Vec xb = rng.uniform_vector(nn * kW, -1.0, 1.0);
  const Vec block = both_paths(
      [&] {
        Vec y(nn * kW, 0.0);
        d.multiply_block(xb.data(), y.data(), /*subtract=*/false);
        return y;
      },
      "multiply_block");
  for (std::size_t c = 0; c < kW; ++c) {
    EXPECT_TRUE(bitwise_equal(block_column(block, c),
                              csr_product(a, block_column(xb, c),
                                          Vec(nn, 0.0), false)))
        << "block column " << c;
  }

  // The sweep's save phase over whole rows: y = -(A z), run by run from
  // the store's shared columns.
  const la::SweepSegments segs = la::SweepSegments::build(
      d, a, a.row_ptr().data(), a.row_ptr().data() + 1, {{0, n}});
  ASSERT_EQ(segs.run_rows(), n);
  const Vec diag(nn, 1.0);
  Vec negated = want;
  for (double& v : negated) v = -v;
  const Vec saved = both_paths(
      [&] {
        Vec z = x;
        Vec y(nn, 0.0);
        la::simd::sweep_segments(segs.runs(), segs.rest().view(), diag.data(),
                                 1.0, nullptr, z.data(), y.data(), false);
        return y;
      },
      "sweep save phase");
  EXPECT_TRUE(bitwise_equal(saved, negated)) << "sweep save phase";
  const Vec block_saved = both_paths(
      [&] {
        Vec z = xb;
        Vec y(nn * kW, 0.0);
        la::simd::block_sweep_segments(segs.runs(), segs.rest().view(),
                                       diag.data(), 1.0, nullptr, z.data(),
                                       y.data(), false);
        return y;
      },
      "block sweep save phase");
  for (std::size_t c = 0; c < kW; ++c) {
    Vec column = csr_product(a, block_column(xb, c), Vec(nn, 0.0), false);
    for (double& v : column) v = -v;
    EXPECT_TRUE(bitwise_equal(block_column(block_saved, c), column))
        << "block sweep column " << c;
  }
}

// A stencil's store holds one column per distinct (length, bits) pair:
// every term whose column has the same length and bits reads the same
// stored column, and no two different columns share storage.
TEST(RunProduct, StoreHoldsEachDistinctColumnOnce) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("poisson2d:n=64");
  const solver::Prepared prepared =
      solver::Solver::from_config(
          solver::SolverConfig::from_string("splitting=ssor"))
          .prepare(p.matrix);
  const la::DiaMatrix& d = prepared.storage();
  const la::simd::RunView runs = d.runs();
  std::map<std::pair<index_t, std::string>, index_t> start_of;
  std::map<index_t, index_t> len_at;
  std::size_t terms = 0;
  for (index_t q = 0; q < runs.num_runs; ++q) {
    const index_t len = runs.len[q];
    for (index_t k = runs.off_at[q]; k < runs.off_at[q] + runs.count[q];
         ++k) {
      const double* v = runs.val + runs.col[k];
      const std::string bits(reinterpret_cast<const char*>(v),
                             static_cast<std::size_t>(len) * sizeof(double));
      const auto [it, fresh] = start_of.insert({{len, bits}, runs.col[k]});
      EXPECT_EQ(it->second, runs.col[k]) << "run " << q << " term " << k;
      if (fresh) {
        EXPECT_TRUE(len_at.insert({runs.col[k], len}).second)
            << "two columns at " << runs.col[k];
      }
      ++terms;
    }
  }
  std::size_t held = 0;
  for (const auto& [start, len] : len_at) held += static_cast<std::size_t>(len);
  EXPECT_EQ(d.held_values(), held);
  EXPECT_GT(terms, 10 * start_of.size());
  EXPECT_EQ(d.stored_values(), static_cast<std::size_t>(p.matrix.nnz()));
}

// The plate's run values are mostly repeats: its store holds a few
// hundred distinct columns, while a product still reads every value.
TEST(RunProduct, PlateStoreHoldsUnderAMegabyte) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=160");
  const solver::Prepared prepared =
      solver::Solver::from_config(
          solver::SolverConfig::from_string("splitting=ssor"))
          .prepare(p.matrix, p.classes);
  const la::DiaMatrix& d = prepared.storage();
  EXPECT_EQ(d.stored_values(), static_cast<std::size_t>(p.matrix.nnz()));
  EXPECT_LE(d.stored_bytes(), 1000000u);
}

// The store without runs is CsrMatrix's kernel on every row: the product,
// every row range, the partitioned product and the block form.
TEST(RunProduct, StoreWithoutRunsIsTheCsrProduct) {
  const la::CsrMatrix a = corner_matrix();
  const index_t n = a.rows();
  const la::DiaMatrix d = la::DiaMatrix::without_runs(a);
  EXPECT_EQ(d.runs().num_runs, 0);
  ASSERT_EQ(d.rest().size(), 1u);
  EXPECT_EQ(d.stored_values(), static_cast<std::size_t>(a.nnz()));
  util::Rng rng(17);
  const Vec x = make_x(rng, n);
  const Vec y0 = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  par::ThreadPool pool(3);
  const shard::ShardPlan plan = shard::ShardPlan::build({0, n}, 3);
  const shard::ShardedOperator sharded(d, plan, pool);
  for (const bool subtract : {false, true}) {
    const Vec want = csr_product(a, x, y0, subtract);
    for (const index_t begin : {index_t{0}, index_t{1}, n / 3}) {
      Vec y = y0;
      d.multiply_rows(x, y, begin, n - begin, subtract);
      Vec clipped = y0;
      std::copy(want.begin() + begin, want.end() - begin,
                clipped.begin() + begin);
      EXPECT_TRUE(bitwise_equal(y, clipped)) << begin;
    }
    Vec y = y0;
    if (subtract) {
      sharded.multiply_sub(x, y);
    } else {
      sharded.multiply(x, y);
    }
    EXPECT_TRUE(bitwise_equal(y, want)) << "sharded";
  }
  const auto nn = static_cast<std::size_t>(n);
  const Vec xb = rng.uniform_vector(nn * kW, -1.0, 1.0);
  Vec from_store(nn * kW, 0.0);
  d.multiply_block(xb.data(), from_store.data(), /*subtract=*/false);
  for (std::size_t c = 0; c < kW; ++c) {
    EXPECT_TRUE(bitwise_equal(block_column(from_store, c),
                              csr_product(a, block_column(xb, c),
                                          Vec(nn, 0.0), false)))
        << "block column " << c;
  }
}

// Prepare builds runs only for the Algorithm-2 sweep, which reads them;
// every other preconditioner gets the store without runs.
TEST(RunProduct, PrepareBuildsRunsOnlyForTheSweep) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=12");
  for (const char* config :
       {"splitting=ssor", "splitting=ssor:omega=1.2", "splitting=jacobi",
        "splitting=ssor;ordering=natural", "splitting=ssor;m=0"}) {
    const auto cfg = solver::SolverConfig::from_string(config);
    const solver::Prepared prepared =
        cfg.ordering == solver::Ordering::kMulticolor
            ? solver::Solver::from_config(cfg).prepare(p.matrix, p.classes)
            : solver::Solver::from_config(cfg).prepare(p.matrix);
    const bool sweep = std::string(config) == "splitting=ssor";
    EXPECT_EQ(prepared.storage().runs().num_runs > 0, sweep) << config;
    EXPECT_EQ(prepared.storage().rest().size() == 1 &&
                  prepared.storage().rest()[0].copy < 0,
              !sweep)
        << config;
  }
}

// Every [begin, end), so every way a range can clip a run or a rest stretch:
// the rows in range are the CSR product's, the rows outside untouched.
TEST(RunProduct, MultiplyRowsIsBitwiseCsrOverEveryRange) {
  const la::CsrMatrix a = corner_matrix();
  const index_t n = a.rows();
  const la::DiaMatrix d = la::DiaMatrix::from_csr(a);
  util::Rng rng(5);
  const Vec x = make_x(rng, n);
  const Vec y0 = rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
  for (const bool subtract : {false, true}) {
    const Vec full = csr_product(a, x, y0, subtract);
    for (const SimdMode mode :
         {SimdMode::kForceScalar, SimdMode::kForceVector}) {
      const SimdModeGuard guard(mode);
      for (index_t begin = 0; begin <= n; ++begin) {
        for (index_t end = begin; end <= n; ++end) {
          Vec y = y0;
          d.multiply_rows(x, y, begin, end, subtract);
          Vec want = y0;
          std::copy(full.begin() + begin, full.begin() + end,
                    want.begin() + begin);
          ASSERT_TRUE(bitwise_equal(y, want))
              << "[" << begin << ", " << end << ")"
              << (subtract ? " multiply_sub" : " multiply")
              << " simd=" << la::simd::simd_isa();
        }
      }
    }
  }
}

// The partitioned product at 1-8 strips, over a store cut at the strips'
// cells and over one cut only at {0, n}: bitwise CSR either way.
TEST(RunProduct, ShardedOperatorIsBitwiseCsrAtStrips1To8) {
  const problems::Problem p =
      problems::ProblemRegistry::instance().create("femplate:a=20");
  const color::ColoredSystem cs = color::make_colored_system(p.matrix,
                                                             p.classes);
  const la::CsrMatrix corner = corner_matrix();
  const std::vector<index_t> whole{0, corner.rows()};
  par::ThreadPool pool(4);
  util::Rng rng(9);
  const struct {
    const char* name;
    const la::CsrMatrix* a;
    const std::vector<index_t>* class_start;
  } systems[] = {{"femplate:a=20", &cs.matrix, &cs.class_start},
                 {"corner", &corner, &whole}};
  for (const auto& sys : systems) {
    const index_t n = sys.a->rows();
    const Vec x = make_x(rng, n);
    const Vec y0 =
        rng.uniform_vector(static_cast<std::size_t>(n), -1.0, 1.0);
    for (int strips = 1; strips <= 8; ++strips) {
      const shard::ShardPlan plan =
          shard::ShardPlan::build(*sys.class_start, strips);
      for (const bool cut_at_cells : {true, false}) {
        const la::DiaMatrix d = la::DiaMatrix::from_csr(
            *sys.a, cut_at_cells ? plan.cell_bounds()
                                 : std::vector<index_t>{0, n});
        const shard::ShardedOperator op(d, plan, pool);
        for (const bool subtract : {false, true}) {
          const std::string what =
              std::string(sys.name) + " strips=" + std::to_string(strips) +
              (cut_at_cells ? " cells" : " whole") +
              (subtract ? " multiply_sub" : " multiply");
          const Vec out = both_paths(
              [&] {
                Vec y = y0;
                if (subtract) {
                  op.multiply_sub(x, y);
                } else {
                  op.multiply(x, y);
                }
                return y;
              },
              what);
          EXPECT_TRUE(bitwise_equal(out, csr_product(*sys.a, x, y0,
                                                     subtract)))
              << what;
        }
      }
    }
  }
}

// The block form for solveMany: column c of the block product is bitwise
// the single-vector product of column c.
TEST(RunProduct, BlockFormIsBitwisePerColumn) {
  const la::CsrMatrix a = corner_matrix();
  const auto n = static_cast<std::size_t>(a.rows());
  const la::DiaMatrix d = la::DiaMatrix::from_csr(a);
  util::Rng rng(11);
  Vec x = rng.uniform_vector(n * kW, -1.0, 1.0);
  for (std::size_t i = 0; i < n; i += 5) x[i * kW + i % kW] = -0.0;
  const Vec y0 = rng.uniform_vector(n * kW, -1.0, 1.0);
  for (const bool subtract : {false, true}) {
    const std::string what = subtract ? "multiply_sub" : "multiply";
    const Vec out = both_paths(
        [&] {
          Vec y = y0;
          d.multiply_block(x.data(), y.data(), subtract);
          return y;
        },
        what);
    for (std::size_t c = 0; c < kW; ++c) {
      EXPECT_TRUE(bitwise_equal(block_column(out, c),
                                csr_product(a, block_column(x, c),
                                            block_column(y0, c),
                                            subtract)))
          << what << " column " << c;
    }
  }
}

// The kernel itself on hand-built runs the builder never makes: lengths
// 1-9 (shorter than a vector of rows, and every tail) and term counts
// 0-17, each row bitwise row_dot over its terms.
TEST(RunProduct, KernelSumsShortRunsAsRowDot) {
  util::Rng rng(13);
  const index_t n = 120;
  const Vec x = make_x(rng, n);
  const auto offset = [](index_t k) { return (k % 2 == 0 ? -1 : 1) * (k + 1); };
  for (const index_t len : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
    for (const index_t terms : {0, 1, 7, 8, 9, 17}) {
      const std::vector<index_t> row{40, 60};
      const std::vector<index_t> lens{len, 4};
      const std::vector<index_t> count{terms, 3};
      std::vector<index_t> off;
      for (index_t k = 0; k < terms; ++k) off.push_back(offset(k));
      for (index_t k = 0; k < 3; ++k) off.push_back(offset(k + 2));
      const std::vector<index_t> off_at{0, terms};
      // The value columns stored last term first, so no column starts where
      // term order would put it.
      std::vector<index_t> col;
      for (index_t k = 0; k < terms; ++k) col.push_back((terms - 1 - k) * len);
      for (index_t k = 0; k < 3; ++k) col.push_back(terms * len + (2 - k) * 4);
      Vec val;
      for (index_t q = 0; q < terms * len + 3 * 4; ++q) {
        val.push_back(q % 6 == 0 ? -0.0 : rng.uniform(-1.0, 1.0));
      }
      la::simd::RunView runs;
      runs.val = val.data();
      runs.off = off.data();
      runs.col = col.data();
      runs.row = row.data();
      runs.len = lens.data();
      runs.off_at = off_at.data();
      runs.count = count.data();
      runs.num_runs = 2;

      const Vec y0 = rng.uniform_vector(static_cast<std::size_t>(n));
      for (const bool subtract : {false, true}) {
        const std::string what = "len=" + std::to_string(len) + " terms=" +
                                 std::to_string(terms) +
                                 (subtract ? " subtract" : "");
        const Vec out = both_paths(
            [&] {
              Vec y = y0;
              la::simd::run_spmv_rows(runs, x.data(), y.data(), 0, n,
                                      subtract);
              return y;
            },
            what);
        Vec want = y0;
        for (index_t q = 0; q < 2; ++q) {
          for (index_t t = 0; t < lens[q]; ++t) {
            const index_t i = row[q] + t;
            Vec v;
            std::vector<index_t> c;
            for (index_t k = 0; k < count[q]; ++k) {
              v.push_back(val[col[off_at[q] + k] + t]);
              c.push_back(i + off[off_at[q] + k]);
            }
            const SimdModeGuard guard(SimdMode::kForceScalar);
            const double sum = la::simd::row_dot(
                v.data(), c.data(), x.data(), 0, count[q]);
            want[i] = subtract ? want[i] - sum : sum;
          }
        }
        EXPECT_TRUE(bitwise_equal(out, want)) << what;
      }
    }
  }
}

}  // namespace
}  // namespace mstep
