// SELL-C-sigma, the third MatrixFormat: construction equivalence to CSR,
// bitwise SpMV across the whole problem catalog, the --format=auto
// occupancy-probe boundaries, and the config round-trip for format=sell.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::la {
namespace {

CsrMatrix small_test_matrix() {
  // [ 4 -1  0  0]
  // [-1  4 -2  0]
  // [ 0 -2  5 -1]
  // [ 0  0 -1  3]
  CooBuilder b(4, 4);
  b.add(0, 0, 4.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 4.0);
  b.add(1, 2, -2.0);
  b.add(2, 1, -2.0);
  b.add(2, 2, 5.0);
  b.add(2, 3, -1.0);
  b.add(3, 2, -1.0);
  b.add(3, 3, 3.0);
  return b.build();
}

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- construction -----------------------------------------------------------

TEST(SellMatrix, FromCsrPreservesEveryEntryInRowOrder) {
  const CsrMatrix a = small_test_matrix();
  const SellMatrix s = SellMatrix::from_csr(a);
  EXPECT_EQ(s.rows(), a.rows());
  EXPECT_EQ(s.cols(), a.cols());
  EXPECT_EQ(s.nnz(), a.nnz());
  EXPECT_EQ(s.num_nonzero_diagonals(), a.num_nonzero_diagonals());

  // The permutation is a bijection onto the real rows (padding slots -1).
  const simd::SellView v = s.view();
  constexpr index_t kC = SellSegments::kSliceHeight;
  std::set<index_t> seen;
  for (index_t slot = 0; slot < v.num_slices * kC; ++slot) {
    const index_t g = v.perm[slot];
    if (g < 0) continue;
    EXPECT_TRUE(seen.insert(g).second) << "row " << g << " stored twice";
  }
  EXPECT_EQ(static_cast<index_t>(seen.size()), a.rows());

  // Reconstruct each row from the slice-column-major storage and compare
  // with the CSR source entry for entry.
  for (index_t sl = 0; sl < v.num_slices; ++sl) {
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = sl * kC + r;
      const index_t g = v.perm[slot];
      if (g < 0) continue;
      const index_t len = v.len[slot];
      ASSERT_EQ(len, a.row_ptr()[g + 1] - a.row_ptr()[g]);
      for (index_t j = 0; j < len; ++j) {
        const std::size_t at =
            v.slice_ptr[sl] + static_cast<std::size_t>(j) * kC + r;
        EXPECT_EQ(v.col[at], a.col_idx()[a.row_ptr()[g] + j]);
        EXPECT_EQ(v.val[at], a.values()[a.row_ptr()[g] + j]);
      }
    }
  }
}

// A padded lane gathers x at its slice's first row id, so only a square
// matrix has that entry.
TEST(SellMatrix, RejectsNonSquareMatrix) {
  CooBuilder b(5, 3);
  b.add(4, 0, 1.0);
  EXPECT_THROW((void)SellMatrix::from_csr(b.build()), std::invalid_argument);
}

TEST(SellMatrix, SigmaWindowSortOrdersSliceMatesByLength) {
  // 8 rows with lengths 1..8 ascending; after the sigma sort the first
  // slice must hold the four longest rows.
  CooBuilder b(8, 8);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j <= i; ++j) b.add(i, j, 1.0 + i + j);
  }
  const SellMatrix s = SellMatrix::from_csr(b.build());
  const simd::SellView v = s.view();
  for (index_t r = 0; r < 4; ++r) {
    EXPECT_GE(v.len[r], 5) << "slice 0 lane " << r;
    EXPECT_LE(v.len[4 + r], 4) << "slice 1 lane " << r;
  }
}

TEST(SellMatrix, HandlesEmptyRowsAndRaggedTail) {
  // 5 rows (ragged last slice), row 2 completely empty.
  CooBuilder b(5, 5);
  b.add(0, 0, 2.0);
  b.add(1, 1, 3.0);
  b.add(1, 0, -1.0);
  b.add(3, 3, 4.0);
  b.add(4, 4, 5.0);
  b.add(4, 0, -2.0);
  const CsrMatrix a = b.build();
  const SellMatrix s = SellMatrix::from_csr(a);
  const Vec x = {1.0, 2.0, 3.0, 4.0, 5.0};
  Vec yc;
  Vec ys;
  a.multiply(x, yc);
  s.multiply(x, ys);
  EXPECT_TRUE(bitwise_equal(yc, ys));
  EXPECT_EQ(ys[2], 0.0);
}

// The vector kernel gathers padded lanes and blends them away.  Segments
// point their padding at a row of their own row list, so threads summing
// disjoint row lists of one vector never read each other's rows.
TEST(SellSegments, PaddingPointsInsideItsRowList) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const CsrMatrix& a = p.matrix;
  // Every row in [5, rows - 6) but each third: a ragged list with gaps.
  std::vector<index_t> rows;
  for (index_t i = 5; i < a.rows() - 6; ++i) {
    if (i % 3 != 0) rows.push_back(i);
  }
  ASSERT_NE(static_cast<index_t>(rows.size()) % SellSegments::kSliceHeight,
            0);
  const SellSegments segs = SellSegments::build(a, a.row_ptr().data(),
                                                a.row_ptr().data() + 1, rows);
  const simd::SellView v = segs.view();
  const index_t h = SellSegments::kSliceHeight;
  std::size_t padded = 0;
  for (index_t sl = 0; sl < v.num_slices; ++sl) {
    const std::size_t base = v.slice_ptr[sl];
    const auto width = static_cast<index_t>((v.slice_ptr[sl + 1] - base) / h);
    for (index_t r = 0; r < h; ++r) {
      for (index_t j = v.len[sl * h + r]; j < width; ++j) {
        const index_t col = v.col[base + static_cast<std::size_t>(j * h + r)];
        EXPECT_EQ(col, v.perm[sl * h]) << "slice " << sl;
        ++padded;
      }
    }
  }
  EXPECT_GT(padded, 0u);
}

// ---- bitwise SpMV across the catalog ---------------------------------------

// Small instances of every catalog generator: SELL SpMV must be bitwise
// CSR SpMV on each, under both the scalar and the vector kernel path.
const char* const kCatalogSpecs[] = {
    "poisson2d:n=10",  "poisson3d:n=5",         "aniso2d:n=10",
    "convdiff:n=10",   "randspd:n=200:band=16", "stencil9:n=10",
    "femplate:a=8",    "cyberplate:a=8",
};

TEST(SellMatrix, SpmvBitwiseMatchesCsrAcrossCatalog) {
  for (const char* spec : kCatalogSpecs) {
    const auto p = problems::ProblemRegistry::instance().create(spec);
    const SellMatrix s = SellMatrix::from_csr(p.matrix);
    util::Rng rng(7);
    const Vec x = rng.uniform_vector(p.matrix.cols());
    for (const auto mode :
         {simd::SimdMode::kForceScalar, simd::SimdMode::kForceVector}) {
      const simd::SimdModeGuard guard(mode);
      Vec yc;
      Vec ys;
      p.matrix.multiply(x, yc);
      s.multiply(x, ys);
      EXPECT_TRUE(bitwise_equal(yc, ys))
          << spec << " isa=" << simd::simd_isa();
    }
  }
}

TEST(SellMatrix, MultiplySubBitwiseMatchesCsr) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const SellMatrix s = SellMatrix::from_csr(p.matrix);
  util::Rng rng(11);
  const Vec x = rng.uniform_vector(p.matrix.cols());
  Vec yc = rng.uniform_vector(p.matrix.rows());
  Vec ys = yc;
  p.matrix.multiply_sub(x, yc);
  s.multiply_sub(x, ys);
  EXPECT_TRUE(bitwise_equal(yc, ys));
}

// ---- the --format=auto probe ------------------------------------------------

TEST(SellMatrix, ProbeAcceptsLocallyUniformRows) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  EXPECT_TRUE(SellMatrix::profitable(p.matrix));
  EXPECT_LE(SellMatrix::fill_estimate(p.matrix), SellMatrix::kDefaultMaxFill);
}

TEST(SellMatrix, ProbeRejectsEmptyMatrix) {
  EXPECT_FALSE(SellMatrix::profitable(CsrMatrix()));
  EXPECT_EQ(SellMatrix::fill_estimate(CsrMatrix()), 0.0);
}

/// SPD matrix engineered to defeat both probes: tridiagonal (so a few
/// dense rows blow the DIA diagonal count) with one dense row per sigma
/// window (so every window pads its short rows to the dense length and
/// the SELL fill explodes past 25%).
CsrMatrix skewed_spd_matrix(index_t n) {
  CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, 20.0);
    if (i + 1 < n) {
      b.add(i, i + 1, -1.0);
      b.add(i + 1, i, -1.0);
    }
  }
  for (index_t d = 0; d < n; d += SellSegments::kDefaultSigma) {
    for (index_t j = 0; j < n; ++j) {
      if (j == d || (j + 1 == d || d + 1 == j)) continue;
      b.add(d, j, -0.01);
      b.add(j, d, -0.01);
    }
  }
  return b.build();
}

TEST(SellMatrix, ProbeRejectsSkewedRowLengths) {
  const CsrMatrix a = skewed_spd_matrix(256);
  EXPECT_FALSE(SellMatrix::profitable(a));
  EXPECT_GT(SellMatrix::fill_estimate(a), SellMatrix::kDefaultMaxFill);
}

// `format` is a parse alias: a matrix both old probes rejected runs on the
// one run storage too, bitwise the format=csr solve.
TEST(FormatAuto, SkewedMatrixRunsOnTheOneStorageBitwiseCsr) {
  const CsrMatrix a = skewed_spd_matrix(256);
  Vec f(a.rows(), 1.0);
  solver::SolverConfig cfg;
  cfg.splitting = "jacobi";
  cfg.steps = 2;
  cfg.params = "ones";
  const auto csr = solver::Solver::from_config(cfg).solve(a, f);
  cfg.format = solver::MatrixFormat::kAuto;
  const auto report = solver::Solver::from_config(cfg).solve(a, f);
  ASSERT_TRUE(report.converged());
  EXPECT_EQ(report.iterations(), csr.iterations());
  EXPECT_TRUE(bitwise_equal(report.solution, csr.solution));
}

TEST(FormatAuto, PlateRunsOnTheOneStorageAndMatchesCsrBitwise) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto csr = solver::Solver::from_config(cfg).solve(p.matrix, p.rhs,
                                                          p.classes);
  cfg.format = solver::MatrixFormat::kAuto;
  const auto auto_run = solver::Solver::from_config(cfg).solve(p.matrix,
                                                               p.rhs,
                                                               p.classes);
  ASSERT_TRUE(csr.converged());
  ASSERT_TRUE(auto_run.converged());
  // Every spelling of `format` runs on the run storage, which changes
  // layout only, never bits.
  EXPECT_EQ(auto_run.iterations(), csr.iterations());
  EXPECT_TRUE(bitwise_equal(auto_run.solution, csr.solution));
}

// ---- config round-trip ------------------------------------------------------

// `format=sell` still parses and is kept for tools that pick a layout by
// hand, but the canonical string omits it and equality ignores it, so it
// shares the config's daemon cache key.
TEST(FormatConfig, SellParsesAsAnAliasTheCanonicalStringDrops) {
  solver::SolverConfig cfg;
  cfg.format = solver::MatrixFormat::kSell;
  EXPECT_EQ(cfg.to_string().find("format"), std::string::npos);
  EXPECT_EQ(cfg.to_string(), solver::SolverConfig{}.to_string());
  const auto back = solver::SolverConfig::from_string(cfg.to_string());
  EXPECT_EQ(back, cfg);
  EXPECT_EQ(solver::SolverConfig::from_string("format=sell").format,
            solver::MatrixFormat::kSell);
  EXPECT_EQ(solver::matrix_format_from_string("sell"),
            solver::MatrixFormat::kSell);
  EXPECT_EQ(solver::to_string(solver::MatrixFormat::kSell), "sell");
}

TEST(FormatConfig, ErrorListsEveryValidFormatName) {
  try {
    (void)solver::matrix_format_from_string("ellpack");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* name : {"csr", "dia", "sell", "auto"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace mstep::la
