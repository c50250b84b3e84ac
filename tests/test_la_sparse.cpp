// Tests for CSR, the COO builder, and storage-by-diagonals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "util/rng.hpp"

namespace mstep::la {
namespace {

CsrMatrix small_test_matrix() {
  // [ 4 -1  0]
  // [-1  4 -2]
  // [ 0 -2  5]
  CooBuilder b(3, 3);
  b.add(0, 0, 4.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 4.0);
  b.add(1, 2, -2.0);
  b.add(2, 1, -2.0);
  b.add(2, 2, 5.0);
  return b.build();
}

TEST(CooBuilder, SumsDuplicateEntries) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 1, 1.0);
  const CsrMatrix a = b.build();
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_EQ(a.nnz(), 2);
}

TEST(CooBuilder, DropZerosRemovesCancellations) {
  CooBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 1, -1.0);
  b.add(0, 0, 2.0);
  b.add(1, 1, 1.0);
  EXPECT_EQ(b.build(false).nnz(), 3);
  EXPECT_EQ(b.build(true).nnz(), 2);
}

TEST(Csr, AtFindsEntriesAndZeros) {
  const CsrMatrix a = small_test_matrix();
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
}

TEST(Csr, MultiplyMatchesDense) {
  const CsrMatrix a = small_test_matrix();
  const Vec x = {1.0, 2.0, 3.0};
  Vec y;
  a.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 + 8.0 - 6.0);
  EXPECT_DOUBLE_EQ(y[2], -4.0 + 15.0);
}

TEST(Csr, MultiplySubIsResidualUpdate) {
  const CsrMatrix a = small_test_matrix();
  const Vec x = {1.0, 1.0, 1.0};
  Vec y = {10.0, 10.0, 10.0};
  a.multiply_sub(x, y);
  EXPECT_DOUBLE_EQ(y[0], 10.0 - 3.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0 - 1.0);
  EXPECT_DOUBLE_EQ(y[2], 10.0 - 3.0);
}

TEST(Csr, ResidualComputesBMinusAx) {
  const CsrMatrix a = small_test_matrix();
  const Vec b = {1.0, 2.0, 3.0};
  const Vec x = {0.0, 0.0, 0.0};
  Vec r;
  a.residual(b, x, r);
  EXPECT_EQ(r, b);
}

TEST(Csr, DiagonalExtraction) {
  const CsrMatrix a = small_test_matrix();
  const Vec d = a.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 4.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Csr, TransposeOfSymmetricEqualsItself) {
  const CsrMatrix a = small_test_matrix();
  EXPECT_DOUBLE_EQ(a.symmetry_error(), 0.0);
  const CsrMatrix t = a.transposed();
  EXPECT_DOUBLE_EQ(t.at(2, 1), a.at(1, 2));
}

TEST(Csr, TransposeOfRectangular) {
  CooBuilder b(2, 3);
  b.add(0, 2, 7.0);
  b.add(1, 0, -1.0);
  const CsrMatrix a = b.build();
  const CsrMatrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 7.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), -1.0);
}

TEST(Csr, PermutedSymmetricReordersRowsAndCols) {
  const CsrMatrix a = small_test_matrix();
  const std::vector<index_t> perm = {2, 0, 1};  // new i <- old perm[i]
  const CsrMatrix p = a.permuted_symmetric(perm);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(p.at(i, j), a.at(perm[i], perm[j]))
          << "mismatch at " << i << "," << j;
    }
  }
}

TEST(Csr, PermutationPreservesSymmetryAndSpectrumTrace) {
  const CsrMatrix a = small_test_matrix();
  const CsrMatrix p = a.permuted_symmetric({1, 2, 0});
  EXPECT_DOUBLE_EQ(p.symmetry_error(), 0.0);
  double tr_a = 0.0, tr_p = 0.0;
  for (index_t i = 0; i < 3; ++i) {
    tr_a += a.at(i, i);
    tr_p += p.at(i, i);
  }
  EXPECT_DOUBLE_EQ(tr_a, tr_p);
}

/// permuted_symmetric as first written: gather each row, then sort an
/// index array by new column.  The sort here is stable, so entries that
/// share a column keep their source order.
CsrMatrix permuted_by_sorting_rows(const CsrMatrix& a,
                                   const std::vector<index_t>& perm) {
  const index_t n = a.rows();
  const auto& arp = a.row_ptr();
  std::vector<index_t> inv(n);
  for (index_t i = 0; i < n; ++i) inv[perm[i]] = i;
  std::vector<index_t> rp(n + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    rp[i + 1] = rp[i] + (arp[perm[i] + 1] - arp[perm[i]]);
  }
  std::vector<index_t> col(rp[n]);
  std::vector<double> val(rp[n]);
  for (index_t i = 0; i < n; ++i) {
    const index_t first = arp[perm[i]];
    std::vector<index_t> order(rp[i + 1] - rp[i]);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
      return inv[a.col_idx()[first + x]] < inv[a.col_idx()[first + y]];
    });
    for (std::size_t t = 0; t < order.size(); ++t) {
      col[rp[i] + t] = inv[a.col_idx()[first + order[t]]];
      val[rp[i] + t] = a.values()[first + order[t]];
    }
  }
  return CsrMatrix(n, n, std::move(rp), std::move(col), std::move(val));
}

/// A random square CSR with ascending columns, repeats allowed: rows of 0
/// to max_len entries (every seventh row empty), values with explicit
/// zeros and -0.0 among them.
CsrMatrix random_square(util::Rng& rng, index_t n, index_t max_len) {
  std::vector<index_t> rp(1, 0);
  std::vector<index_t> col;
  std::vector<double> val;
  for (index_t i = 0; i < n; ++i) {
    const auto draw = rng.uniform_index(static_cast<std::uint64_t>(max_len + 1));
    const index_t len = i % 7 == 0 ? 0 : static_cast<index_t>(draw);
    std::vector<index_t> cols(len);
    for (index_t& c : cols) c = static_cast<index_t>(rng.uniform_index(n));
    std::sort(cols.begin(), cols.end());
    for (const index_t c : cols) {
      const double u = rng.uniform();
      col.push_back(c);
      val.push_back(u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.uniform(-1.0, 1.0));
    }
    rp.push_back(static_cast<index_t>(col.size()));
  }
  return CsrMatrix(n, n, std::move(rp), std::move(col), std::move(val));
}

TEST(Csr, PermutedSymmetricMatchesSortingEachRow) {
  util::Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<index_t>(1 + rng.uniform_index(150));
    // Short rows take the in-place insertion, rows past 32 the long path;
    // with few columns to draw from, long rows repeat columns often.
    const CsrMatrix a = random_square(rng, n, trial % 2 == 0 ? 12 : 60);
    std::vector<index_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (index_t i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.uniform_index(
                             static_cast<std::uint64_t>(i) + 1)]);
    }
    std::vector<index_t> inv(n);
    for (index_t i = 0; i < n; ++i) inv[perm[i]] = i;
    const CsrMatrix want = permuted_by_sorting_rows(a, perm);
    for (const CsrMatrix& got :
         {a.permuted_symmetric(perm), a.permuted_symmetric(perm, inv)}) {
      EXPECT_EQ(got.row_ptr(), want.row_ptr()) << trial;
      EXPECT_EQ(got.col_idx(), want.col_idx()) << trial;
      ASSERT_EQ(got.values().size(), want.values().size()) << trial;
      EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                            want.values().size() * sizeof(double)),
                0)
          << trial;
    }
  }
}

TEST(Csr, MaxRowNnz) {
  const CsrMatrix a = small_test_matrix();
  EXPECT_EQ(a.max_row_nnz(), 3);
}

TEST(Csr, IdentityActsAsIdentity) {
  const CsrMatrix i5 = csr_identity(5);
  util::Rng rng(1);
  const Vec x = rng.uniform_vector(5);
  Vec y;
  i5.multiply(x, y);
  EXPECT_EQ(x, y);
}

TEST(Csr, NumNonzeroDiagonalsTridiagonal) {
  const CsrMatrix a = small_test_matrix();
  EXPECT_EQ(a.num_nonzero_diagonals(), 3);
}

// --- DIA format ----------------------------------------------------------

TEST(Dia, RoundTripsTridiagonal) {
  const CsrMatrix a = small_test_matrix();
  const DiaMatrix d = DiaMatrix::from_csr(a);
  EXPECT_EQ(d.num_diagonals(), 3);
  util::Rng rng(9);
  const Vec x = rng.uniform_vector(3);
  Vec y_csr, y_dia;
  a.multiply(x, y_csr);
  d.multiply(x, y_dia);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y_csr[i], y_dia[i], 1e-14);
}

TEST(Dia, MultiplySubMatchesCsr) {
  const CsrMatrix a = small_test_matrix();
  const DiaMatrix d = DiaMatrix::from_csr(a);
  util::Rng rng(10);
  const Vec x = rng.uniform_vector(3);
  Vec y1 = rng.uniform_vector(3);
  Vec y2 = y1;
  a.multiply_sub(x, y1);
  d.multiply_sub(x, y2);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

class DiaVsCsrOnProblems : public ::testing::TestWithParam<int> {};

TEST_P(DiaVsCsrOnProblems, PoissonSpmvAgrees) {
  const int n = GetParam();
  const fem::PoissonProblem prob(n, n);
  const CsrMatrix a = prob.matrix();
  const DiaMatrix d = DiaMatrix::from_csr(a);
  EXPECT_EQ(d.num_diagonals(), n == 1 ? 1 : 5);
  util::Rng rng(n);
  const Vec x = rng.uniform_vector(a.rows());
  Vec y1, y2;
  a.multiply(x, y1);
  d.multiply(x, y2);
  double err = 0.0;
  for (std::size_t i = 0; i < y1.size(); ++i)
    err = std::max(err, std::abs(y1[i] - y2[i]));
  EXPECT_LT(err, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grids, DiaVsCsrOnProblems,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Dia, PlateMatrixDiagonalCountIsBounded) {
  // The free plate stiffness in the geometric ordering has a fixed set of
  // diagonals determined by the stencil, independent of the plate size.
  const fem::PlateMesh mesh(6, 6);
  const fem::Material mat;
  const CsrMatrix k = fem::assemble_free_stiffness(mesh, mat);
  const DiaMatrix d = DiaMatrix::from_csr(k);
  EXPECT_LE(d.num_diagonals(), 15);  // 7-node stencil x 2 dofs, +/- offsets
  util::Rng rng(2);
  const Vec x = rng.uniform_vector(k.rows());
  Vec y1, y2;
  k.multiply(x, y1);
  d.multiply(x, y2);
  double err = 0.0;
  for (std::size_t i = 0; i < y1.size(); ++i)
    err = std::max(err, std::abs(y1[i] - y2[i]));
  EXPECT_LT(err, 1e-12);
}

}  // namespace
}  // namespace mstep::la
