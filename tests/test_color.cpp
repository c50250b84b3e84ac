// Tests for the multicolor ordering machinery and the block structure of
// equation (3.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "census_reference.hpp"
#include "color/coloring.hpp"
#include "color/greedy.hpp"
#include "core/multicolor_mstep.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "io/matrix_market.hpp"
#include "problems/problem.hpp"
#include "util/rng.hpp"

namespace mstep::color {
namespace {

struct PlateSetup {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  ColorClasses classes;
  ColoredSystem cs;
};

PlateSetup make_plate(int rows, int cols) {
  fem::PlateMesh mesh(rows, cols);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{}, fem::EdgeLoad{});
  ColorClasses classes = six_color_classes(mesh);
  ColoredSystem cs = make_colored_system(sys.stiffness, classes);
  return {std::move(mesh), std::move(sys.stiffness), std::move(classes),
          std::move(cs)};
}

TEST(SixColor, ClassesPartitionAllEquations) {
  const auto s = make_plate(5, 5);
  EXPECT_EQ(s.classes.num_classes(), 6);
  EXPECT_EQ(s.classes.total_equations(), s.mesh.num_equations());
  std::vector<bool> seen(s.mesh.num_equations(), false);
  for (const auto& cls : s.classes.classes) {
    for (index_t eq : cls) {
      EXPECT_FALSE(seen[eq]);
      seen[eq] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(SixColor, ColoringIsValidForVariousPlates) {
  for (int rows : {3, 4, 6, 9}) {
    for (int cols : {3, 5, 8}) {
      const auto s = make_plate(rows, cols);
      EXPECT_TRUE(coloring_is_valid(s.k, s.classes))
          << rows << "x" << cols;
    }
  }
}

TEST(SixColor, ClassSizesAreBalancedOnWrapAroundPlates) {
  // When the number of nodes per row makes the colouring wrap R/B/G
  // seamlessly (ncols divisible by 3), class sizes are exactly equal.
  const auto s = make_plate(6, 7);  // 6 unconstrained columns per row
  const index_t expect = s.mesh.num_equations() / 6;
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(s.cs.class_size(k), expect) << "class " << k;
  }
}

TEST(Permutation, RoundTripsVectors) {
  const auto s = make_plate(4, 6);
  util::Rng rng(2);
  const Vec x = rng.uniform_vector(s.cs.size());
  const Vec y = s.cs.unpermute(s.cs.permute(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
}

TEST(Permutation, InverseIsConsistent) {
  const auto s = make_plate(3, 4);
  for (index_t i = 0; i < s.cs.size(); ++i) {
    EXPECT_EQ(s.cs.inv_perm[s.cs.perm[i]], i);
  }
}

TEST(Permutation, MatrixActionCommutesWithReordering) {
  // (P K P^T)(P x) must equal P (K x).
  const auto s = make_plate(5, 4);
  util::Rng rng(3);
  const Vec x = rng.uniform_vector(s.cs.size());
  Vec kx;
  s.k.multiply(x, kx);
  Vec kpx;
  s.cs.matrix.multiply(s.cs.permute(x), kpx);
  const Vec expected = s.cs.permute(kx);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(kpx[i], expected[i], 1e-12);
  }
}

TEST(BlockStructure, Equation31HoldsForPlate) {
  // D_kk diagonal for all six classes; B12, B34, B56 diagonal.
  for (int rows : {4, 6}) {
    for (int cols : {4, 7}) {
      const auto s = make_plate(rows, cols);
      const auto rep = verify_block_structure(s.cs);
      EXPECT_TRUE(rep.diagonal_blocks_are_diagonal) << rows << "x" << cols;
      EXPECT_TRUE(rep.paired_dof_blocks_are_diagonal) << rows << "x" << cols;
      EXPECT_EQ(rep.max_row_nnz, 14);
    }
  }
}

TEST(BlockStructure, PermutationPreservesSymmetry) {
  const auto s = make_plate(5, 5);
  EXPECT_LT(s.cs.matrix.symmetry_error(), 1e-12);
}

TEST(TwoColor, RedBlackDecouplesPoisson) {
  const fem::PoissonProblem p(7, 6);
  const auto a = p.matrix();
  const auto classes = two_color_classes(p);
  EXPECT_EQ(classes.num_classes(), 2);
  EXPECT_TRUE(coloring_is_valid(a, classes));
  const auto cs = make_colored_system(a, classes);
  const auto rep = verify_block_structure(cs);
  EXPECT_TRUE(rep.diagonal_blocks_are_diagonal);
}

TEST(Validity, DetectsBadColoring) {
  // Put two coupled equations in the same class: must be rejected.
  const fem::PoissonProblem p(3, 3);
  const auto a = p.matrix();
  ColorClasses bad;
  bad.classes.assign(2, {});
  for (index_t i = 0; i < a.rows(); ++i) {
    bad.classes[i < a.rows() / 2 ? 0 : 1].push_back(i);
  }
  EXPECT_FALSE(coloring_is_valid(a, bad));
}

TEST(Validity, RejectsIncompleteClasses) {
  const fem::PoissonProblem p(3, 3);
  const auto a = p.matrix();
  ColorClasses missing = two_color_classes(p);
  missing.classes[0].pop_back();
  EXPECT_FALSE(coloring_is_valid(a, missing));
}

// ---- the prepare-time analyses against plain references ---------------------

/// A random symmetric matrix with a full positive diagonal: each row
/// couples to a few random others, explicit zeros and -0.0 among the
/// values, coloured greedily so every class block is diagonal.
ColoredSystem random_colored_system(util::Rng& rng, index_t n) {
  la::CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) b.add(i, i, 4.0 + rng.uniform());
  for (index_t e = 0; e < 3 * n; ++e) {
    const auto i = static_cast<index_t>(rng.uniform_index(n));
    const auto j = static_cast<index_t>(rng.uniform_index(n));
    if (i == j) continue;
    const double u = rng.uniform();
    const double v = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.uniform(-1.0, 1.0);
    b.add(i, j, v);
    b.add(j, i, v);
  }
  const la::CsrMatrix k = b.build();
  return make_colored_system(k, greedy_classes_from_matrix(k));
}

TEST(RowSplits, DiagonalAndCensusMatchTheirReferences) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<index_t>(2 + rng.uniform_index(300));
    const ColoredSystem cs = random_colored_system(rng, n);
    const RowSplits splits = compute_row_splits(cs);
    const Vec diag = cs.matrix.diagonal();
    ASSERT_EQ(splits.diag.size(), diag.size());
    EXPECT_EQ(std::memcmp(splits.diag.data(), diag.data(),
                          diag.size() * sizeof(double)),
              0)
        << trial;
    // The sweep plan's census, counted from its run segments.
    const ClassDiagonalCensus want = reference::census_by_sets(cs, splits);
    for (const int strips : {1, 3}) {
      const core::MulticolorSweepPlan plan(cs, strips);
      EXPECT_EQ(plan.census.lower, want.lower) << trial << " " << strips;
      EXPECT_EQ(plan.census.upper, want.upper) << trial << " " << strips;
    }
  }
  // A row that holds its diagonal twice reads the first, as diagonal()
  // does.
  const fem::PoissonProblem poisson(4, 3);
  const la::CsrMatrix a = poisson.matrix();
  std::vector<index_t> rp(1, 0);
  std::vector<index_t> col;
  std::vector<double> val;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t t = a.row_ptr()[i]; t < a.row_ptr()[i + 1]; ++t) {
      col.push_back(a.col_idx()[t]);
      val.push_back(a.values()[t]);
      if (i == 5 && a.col_idx()[t] == 5) {
        col.push_back(5);
        val.push_back(-1.0);
      }
    }
    rp.push_back(static_cast<index_t>(col.size()));
  }
  const ColoredSystem twice =
      make_colored_system(la::CsrMatrix(a.rows(), a.cols(), rp, col, val),
                          two_color_classes(poisson));
  EXPECT_EQ(compute_row_splits(twice).diag, twice.matrix.diagonal());

  // The plate's six classes too.
  const auto s = make_plate(7, 9);
  const RowSplits splits = compute_row_splits(s.cs);
  const ClassDiagonalCensus want = reference::census_by_sets(s.cs, splits);
  const core::MulticolorSweepPlan plan(s.cs);
  EXPECT_EQ(plan.census.lower, want.lower);
  EXPECT_EQ(plan.census.upper, want.upper);
}

// A missing, zero or -0.0 diagonal throws CsrMatrix::diagonal()'s
// std::runtime_error, also when a class block is not diagonal as well;
// only a class block that is not diagonal throws std::invalid_argument.
TEST(RowSplits, BadDiagonalThrowsDiagonalsError) {
  const fem::PoissonProblem p(4, 3);
  const la::CsrMatrix a = p.matrix();
  const ColorClasses two = two_color_classes(p);
  ColorClasses one;
  one.classes.assign(1, {});
  for (index_t i = 0; i < a.rows(); ++i) one.classes[0].push_back(i);
  for (const double bad : {0.0, -0.0}) {
    la::CsrMatrix k = a;
    const auto& rp = k.row_ptr();
    const auto& col = k.col_idx();
    const auto at = std::find(col.begin() + rp[5], col.begin() + rp[6], 5);
    k.values()[static_cast<std::size_t>(at - col.begin())] = bad;
    for (const ColorClasses& classes : {two, one}) {
      const ColoredSystem cs = make_colored_system(k, classes);
      EXPECT_THROW((void)cs.matrix.diagonal(), std::runtime_error);
      EXPECT_THROW((void)compute_row_splits(cs), std::runtime_error);
    }
  }
  // Row 5 without a diagonal entry at all.
  std::vector<index_t> rp(1, 0);
  std::vector<index_t> col;
  std::vector<double> val;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t t = a.row_ptr()[i]; t < a.row_ptr()[i + 1]; ++t) {
      if (i == 5 && a.col_idx()[t] == 5) continue;
      col.push_back(a.col_idx()[t]);
      val.push_back(a.values()[t]);
    }
    rp.push_back(static_cast<index_t>(col.size()));
  }
  const la::CsrMatrix holed(a.rows(), a.cols(), rp, col, val);
  const ColoredSystem cs = make_colored_system(holed, two);
  EXPECT_THROW((void)cs.matrix.diagonal(), std::runtime_error);
  EXPECT_THROW((void)compute_row_splits(cs), std::runtime_error);
  EXPECT_THROW((void)compute_row_splits(make_colored_system(a, one)),
               std::invalid_argument);
}

/// First-fit colouring as first written: one adjacency vector per row
/// (the off-diagonal pattern, explicit zeros included), then the smallest
/// colour no earlier neighbour holds.
ColorClasses greedy_by_adjacency(const la::CsrMatrix& k) {
  const index_t n = k.rows();
  std::vector<std::vector<index_t>> adjacency(n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t t = k.row_ptr()[i]; t < k.row_ptr()[i + 1]; ++t) {
      if (k.col_idx()[t] != i) adjacency[i].push_back(k.col_idx()[t]);
    }
  }
  std::vector<int> color(n, -1);
  int ncolors = 0;
  for (index_t v = 0; v < n; ++v) {
    std::vector<char> used(static_cast<std::size_t>(ncolors) + 1, 0);
    for (const index_t w : adjacency[v]) {
      if (color[w] >= 0) used[color[w]] = 1;
    }
    int c = 0;
    while (used[c]) ++c;
    color[v] = c;
    ncolors = std::max(ncolors, c + 1);
  }
  ColorClasses cc;
  cc.classes.assign(ncolors, {});
  for (index_t i = 0; i < n; ++i) cc.classes[color[i]].push_back(i);
  return cc;
}

TEST(Greedy, ClassesMatchTheAdjacencyColouring) {
  auto& registry = problems::ProblemRegistry::instance();
  for (const std::string& name : registry.names()) {
    const problems::Problem p = registry.create(name);
    EXPECT_EQ(greedy_classes_from_matrix(p.matrix).classes,
              greedy_by_adjacency(p.matrix).classes)
        << name;
  }
  const la::CsrMatrix band =
      io::read_matrix_market(std::string(MSTEP_TEST_DATA_DIR) +
                             "/spd_band_symmetric.mtx")
          .matrix;
  EXPECT_EQ(greedy_classes_from_matrix(band).classes,
            greedy_by_adjacency(band).classes);
  util::Rng rng(9);
  const ColoredSystem cs = random_colored_system(rng, 400);
  EXPECT_EQ(greedy_classes_from_matrix(cs.matrix).classes,
            greedy_by_adjacency(cs.matrix).classes);
}

// A column past the last row would index the colour of a vertex that does
// not exist: a matrix that is not square is refused before any colouring.
TEST(Greedy, RejectsANonSquareMatrix) {
  la::CooBuilder b(3, 50);
  for (index_t i = 0; i < 3; ++i) b.add(i, i, 1.0);
  b.add(0, 49, 1.0);
  EXPECT_THROW((void)greedy_classes_from_matrix(b.build()),
               std::invalid_argument);
}

}  // namespace
}  // namespace mstep::color
