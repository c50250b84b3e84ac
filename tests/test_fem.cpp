// Tests for the plate mesh, plane-stress assembly, and Poisson problems.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "fem/plane_stress.hpp"
#include "fem/plate_mesh.hpp"
#include "fem/poisson.hpp"
#include "la/dense_matrix.hpp"
#include "util/rng.hpp"

namespace mstep::fem {
namespace {

TEST(PlateMesh, DimensionsMatchPaperFormula) {
  // N = 2ab with a rows of nodes and b unconstrained columns.
  const PlateMesh m(6, 6);
  EXPECT_EQ(m.num_equations(), 2 * 6 * 5);  // the 60-equation FEM problem
  const PlateMesh big(20, 20);
  EXPECT_EQ(big.num_equations(), 2 * 20 * 19);
}

TEST(PlateMesh, TriangleCountAndOrientation) {
  const PlateMesh m(4, 5);
  const auto tris = m.triangles();
  EXPECT_EQ(tris.size(), 2u * 3 * 4);
  for (const auto& t : tris) {
    const double area2 =
        (m.node_x(t.n1) - m.node_x(t.n0)) * (m.node_y(t.n2) - m.node_y(t.n0)) -
        (m.node_x(t.n2) - m.node_x(t.n0)) * (m.node_y(t.n1) - m.node_y(t.n0));
    EXPECT_GT(area2, 0.0) << "triangle not counter-clockwise";
  }
}

TEST(PlateMesh, EveryTriangleHasThreeDistinctColors) {
  // Figure 1's property — the basis of the multicolor decoupling.
  for (int rows : {2, 3, 5, 8}) {
    for (int cols : {2, 4, 7}) {
      const PlateMesh m(rows, cols);
      for (const auto& t : m.triangles()) {
        std::set<int> colors = {static_cast<int>(m.color(t.n0)),
                                static_cast<int>(m.color(t.n1)),
                                static_cast<int>(m.color(t.n2))};
        EXPECT_EQ(colors.size(), 3u);
      }
    }
  }
}

TEST(PlateMesh, EquationIdRoundTrips) {
  const PlateMesh m(5, 7);
  for (index_t eq = 0; eq < m.num_equations(); ++eq) {
    const auto [node, dof] = m.equation_node_dof(eq);
    EXPECT_EQ(m.equation_id(node, dof), eq);
    EXPECT_FALSE(m.is_constrained(node));
  }
}

TEST(PlateMesh, ConstrainedColumnHasNoEquations) {
  const PlateMesh m(4, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(m.equation_id(m.node_id(r, 0), 0), -1);
    EXPECT_EQ(m.equation_id(m.node_id(r, 0), 1), -1);
  }
}

TEST(PlateMesh, InteriorNodeHasSixNeighbors) {
  const PlateMesh m(5, 5);
  const auto nb = m.neighbor_nodes(m.node_id(2, 2));
  EXPECT_EQ(nb.size(), 6u);
}

TEST(PlateMesh, CornerNodeHasTwoOrThreeNeighbors) {
  const PlateMesh m(5, 5);
  EXPECT_EQ(m.neighbor_nodes(m.node_id(0, 0)).size(), 2u);  // bottom-left
  EXPECT_EQ(m.neighbor_nodes(m.node_id(0, 4)).size(), 3u);  // bottom-right
}

// ---- element stiffness -----------------------------------------------------

TEST(CstStiffness, IsSymmetric) {
  const Material mat;
  const auto ke = cst_stiffness({0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, mat);
  EXPECT_TRUE(ke.is_symmetric(1e-12));
}

TEST(CstStiffness, RigidBodyModesGiveZeroForce) {
  const Material mat{2.0, 0.25, 1.5};
  const std::array<double, 3> x = {0.2, 1.1, 0.4};
  const std::array<double, 3> y = {0.1, 0.3, 0.9};
  const auto ke = cst_stiffness(x, y, mat);
  // Translation in x, translation in y, infinitesimal rotation.
  const Vec tx = {1, 0, 1, 0, 1, 0};
  const Vec ty = {0, 1, 0, 1, 0, 1};
  Vec rot(6);
  for (int i = 0; i < 3; ++i) {
    rot[2 * i] = -y[i];
    rot[2 * i + 1] = x[i];
  }
  for (const Vec& mode : {tx, ty, rot}) {
    const Vec f = ke.multiply(mode);
    for (double v : f) EXPECT_NEAR(v, 0.0, 1e-12);
  }
}

TEST(CstStiffness, PositiveSemiDefinite) {
  const Material mat;
  const auto ke = cst_stiffness({0.0, 1.0, 0.2}, {0.0, 0.1, 0.8}, mat);
  const auto ev = la::symmetric_eigenvalues(ke);
  EXPECT_GE(ev.front(), -1e-12);
  // Exactly 3 near-zero (rigid-body) eigenvalues.
  int zero_count = 0;
  for (double v : ev) {
    if (std::abs(v) < 1e-10) ++zero_count;
  }
  EXPECT_EQ(zero_count, 3);
}

TEST(CstStiffness, ScalesLinearlyWithThicknessAndModulus) {
  const std::array<double, 3> x = {0.0, 1.0, 0.0};
  const std::array<double, 3> y = {0.0, 0.0, 1.0};
  const auto k1 = cst_stiffness(x, y, Material{1.0, 0.3, 1.0});
  const auto k2 = cst_stiffness(x, y, Material{3.0, 0.3, 2.0});
  EXPECT_NEAR(k2(0, 0), 6.0 * k1(0, 0), 1e-12);
}

TEST(CstStiffness, DegenerateTriangleThrows) {
  EXPECT_THROW(
      cst_stiffness({0.0, 1.0, 2.0}, {0.0, 1.0, 2.0}, Material{}),
      std::invalid_argument);
}

// ---- assembled system -------------------------------------------------------

TEST(Assembly, StiffnessIsSymmetric) {
  const PlateMesh mesh(5, 5);
  const auto sys = assemble_plane_stress(mesh, Material{}, EdgeLoad{});
  EXPECT_LT(sys.stiffness.symmetry_error(), 1e-12);
}

TEST(Assembly, StiffnessIsPositiveDefinite) {
  const PlateMesh mesh(4, 4);
  const auto sys = assemble_plane_stress(mesh, Material{}, EdgeLoad{});
  const auto ev = la::symmetric_eigenvalues(sys.stiffness.to_dense());
  EXPECT_GT(ev.front(), 0.0);
}

TEST(Assembly, MaxRowNnzIs14) {
  // Figure 2: 7-node stencil x 2 dofs = 14 nonzeros in interior rows.
  const PlateMesh mesh(8, 8);
  const auto sys = assemble_plane_stress(mesh, Material{}, EdgeLoad{});
  EXPECT_EQ(sys.stiffness.max_row_nnz(), 14);
}

TEST(Assembly, FreeStiffnessHasThreeRigidBodyModes) {
  const PlateMesh mesh(3, 3);
  const auto k = assemble_free_stiffness(mesh, Material{});
  const auto ev = la::symmetric_eigenvalues(k.to_dense());
  int zero_count = 0;
  for (double v : ev) {
    if (std::abs(v) < 1e-9) ++zero_count;
  }
  EXPECT_EQ(zero_count, 3);
  EXPECT_GE(ev.front(), -1e-9);
}

TEST(Assembly, LoadAppearsOnlyOnRightEdge) {
  const PlateMesh mesh(4, 4);
  const auto sys = assemble_plane_stress(mesh, Material{}, EdgeLoad{1.0, 0.0});
  for (index_t eq = 0; eq < mesh.num_equations(); ++eq) {
    const auto [node, dof] = mesh.equation_node_dof(eq);
    const bool right_edge = mesh.node_col(node) == mesh.ncols() - 1;
    if (right_edge && dof == 0) {
      EXPECT_GT(sys.load[eq], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(sys.load[eq], 0.0);
    }
  }
}

TEST(Assembly, TotalLoadEqualsTractionTimesEdgeLength) {
  const PlateMesh mesh(6, 4);
  const Material mat{1.0, 0.3, 2.0};
  const auto sys = assemble_plane_stress(mesh, mat, EdgeLoad{3.0, 0.0});
  double total = 0.0;
  for (double v : sys.load) total += v;
  EXPECT_NEAR(total, mat.thickness * 3.0 * 1.0, 1e-12);  // height = 1
}

TEST(Assembly, PlateStretchesTowardLoad) {
  // Physical sanity: x-traction on the right edge produces positive mean
  // x-displacement.
  const PlateMesh mesh(5, 5);
  const auto sys = assemble_plane_stress(mesh, Material{}, EdgeLoad{1.0, 0.0});
  const Vec u = la::solve_cholesky(sys.stiffness.to_dense(), sys.load);
  double mean_ux = 0.0;
  int count = 0;
  for (index_t eq = 0; eq < mesh.num_equations(); eq += 2) {
    mean_ux += u[eq];
    ++count;
  }
  EXPECT_GT(mean_ux / count, 0.0);
}

// ---- Poisson ----------------------------------------------------------------

TEST(Poisson, MatrixIsSymmetricSpd) {
  const PoissonProblem p(6, 5);
  const auto a = p.matrix();
  EXPECT_LT(a.symmetry_error(), 1e-12);
  const auto ev = la::symmetric_eigenvalues(a.to_dense());
  EXPECT_GT(ev.front(), 0.0);
}

TEST(Poisson, KnownEigenvalueOfUnitGrid) {
  // Smallest eigenvalue of the 5-point Laplacian on the unit square:
  // (2/h^2)(2 - cos(pi h) - cos(pi h)) with h = 1/(n+1).
  const int n = 9;
  const PoissonProblem p(n, n);
  const auto ev = la::symmetric_eigenvalues(p.matrix().to_dense());
  const double h = 1.0 / (n + 1);
  const double expected = (2.0 / (h * h)) * (2.0 - 2.0 * std::cos(M_PI * h));
  EXPECT_NEAR(ev.front(), expected, 1e-8 * expected);
}

TEST(Poisson, DiscreteSolveMatchesManufacturedDiscreteSolution) {
  const PoissonProblem p(8, 8);
  const auto a = p.matrix();
  util::Rng rng(5);
  const Vec u_exact = rng.uniform_vector(a.rows());
  Vec f;
  a.multiply(u_exact, f);
  const Vec u = la::solve_cholesky(a.to_dense(), f);
  double err = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i)
    err = std::max(err, std::abs(u[i] - u_exact[i]));
  EXPECT_LT(err, 1e-9);
}

TEST(Poisson, ContinuumConvergenceSecondOrder) {
  // Discretization error for u = sin(pi x) sin(pi y) should shrink ~4x per
  // mesh refinement.
  auto solve_err = [](int n) {
    const PoissonProblem p(n, n);
    const auto a = p.matrix();
    const Vec f = p.rhs([](double x, double y) {
      return 2.0 * M_PI * M_PI * std::sin(M_PI * x) * std::sin(M_PI * y);
    });
    const Vec exact = p.grid_function(
        [](double x, double y) { return std::sin(M_PI * x) * std::sin(M_PI * y); });
    const Vec u = la::solve_cholesky(a.to_dense(), f);
    double err = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i)
      err = std::max(err, std::abs(u[i] - exact[i]));
    return err;
  };
  const double e1 = solve_err(7);
  const double e2 = solve_err(15);
  EXPECT_GT(e1 / e2, 3.0);  // ~4 expected
}

TEST(Poisson, RedBlackColoringAlternates) {
  const PoissonProblem p(4, 4);
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      if (i + 1 < 4) {
        EXPECT_NE(p.color(i, j), p.color(i + 1, j));
      }
      if (j + 1 < 4) {
        EXPECT_NE(p.color(i, j), p.color(i, j + 1));
      }
    }
  }
}

}  // namespace
}  // namespace mstep::fem
