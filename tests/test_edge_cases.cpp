// Edge-case and failure-injection tests across modules: the paths a
// downstream user hits when they misuse the API or feed degenerate inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "femsim/machine.hpp"
#include "la/dia_matrix.hpp"
#include "la/polynomial.hpp"
#include "split/splitting.hpp"
#include "util/rng.hpp"

namespace mstep {
namespace {

TEST(EdgeCase, PlateMeshRejectsDegenerateGrids) {
  EXPECT_THROW(fem::PlateMesh(1, 5), std::invalid_argument);
  EXPECT_THROW(fem::PlateMesh(5, 1), std::invalid_argument);
}

TEST(EdgeCase, PoissonRejectsEmptyGrid) {
  EXPECT_THROW(fem::PoissonProblem(0, 3), std::invalid_argument);
}

TEST(EdgeCase, SmallestPlateSolves) {
  // 2x2 nodes: 4 equations — the smallest legal problem end to end.
  const fem::PlateMesh mesh(2, 2);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  EXPECT_EQ(sys.stiffness.rows(), 4);
  const auto cs = color::make_colored_system(sys.stiffness,
                                             color::six_color_classes(mesh));
  const core::MulticolorMStepSsor prec(
      cs, core::least_squares_alphas(2, core::ssor_interval()));
  core::PcgOptions opt;
  opt.tolerance = 1e-12;
  const auto res = core::pcg_solve(cs.matrix, cs.permute(sys.load), prec, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_residual2, 1e-8);
}

TEST(EdgeCase, SixColorClassesMayBeEmptyOnTinyPlates) {
  // A 2x2 plate has only some colours among its unconstrained nodes; the
  // machinery must tolerate empty classes.
  const fem::PlateMesh mesh(2, 2);
  const auto classes = color::six_color_classes(mesh);
  const auto sys =
      fem::assemble_plane_stress(mesh, fem::Material{}, fem::EdgeLoad{});
  EXPECT_TRUE(color::coloring_is_valid(sys.stiffness, classes));
  int empty = 0;
  for (const auto& c : classes.classes) {
    if (c.empty()) ++empty;
  }
  EXPECT_GT(empty, 0);
}

TEST(EdgeCase, MStepRejectsEmptyAlphas) {
  const fem::PoissonProblem prob(3, 3);
  const auto a = prob.matrix();
  const split::JacobiSplitting jac(a);
  const la::CsrOperator k(a);
  EXPECT_THROW(core::MStepPreconditioner(k, jac, {}), std::invalid_argument);
}

TEST(EdgeCase, MStepRejectsSizeMismatch) {
  const fem::PoissonProblem p1(3, 3);
  const fem::PoissonProblem p2(4, 4);
  const auto a1 = p1.matrix();
  const auto a2 = p2.matrix();
  const split::JacobiSplitting jac2(a2);
  const la::CsrOperator k1(a1);
  EXPECT_THROW(core::MStepPreconditioner(k1, jac2, {1.0}),
               std::invalid_argument);
}

TEST(EdgeCase, PcgRejectsWrongRhsSize) {
  const fem::PoissonProblem prob(3, 3);
  const auto a = prob.matrix();
  const Vec bad(a.rows() + 1, 1.0);
  EXPECT_THROW((void)core::cg_solve(a, bad), std::invalid_argument);
}

TEST(EdgeCase, PcgZeroRhsReturnsZeroImmediately) {
  const fem::PoissonProblem prob(4, 4);
  const auto a = prob.matrix();
  const Vec zero(a.rows(), 0.0);
  core::PcgOptions opt;
  opt.tolerance = 1e-10;
  const auto res = core::cg_solve(a, zero, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1);
  for (double v : res.solution) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EdgeCase, DiaMatrixRejectsRectangular) {
  la::CooBuilder b(2, 3);
  b.add(0, 0, 1.0);
  const la::CsrMatrix a = b.build();
  EXPECT_THROW((void)la::DiaMatrix::from_csr(a), std::invalid_argument);
}

// A product reads each run row's terms once from the run storage and each
// other row's terms from the CSR matrix: exactly the nonzeros, never the
// full-length diagonals' fill, and exactly n for a diagonal matrix (one
// run, no rest).
TEST(EdgeCase, DiaStoredValuesAreRunTermsPlusRestRows) {
  const auto a = fem::PoissonProblem(4, 4).matrix();
  const auto d = la::DiaMatrix::from_csr(a);
  EXPECT_EQ(d.stored_values(), static_cast<std::size_t>(a.nnz()));
  EXPECT_LE(d.stored_values(),
            static_cast<std::size_t>(d.num_diagonals()) * a.rows());
  const la::CsrMatrix id = la::csr_identity(9);
  const auto eye = la::DiaMatrix::from_csr(id);
  EXPECT_EQ(eye.stored_values(), 9u);
  EXPECT_TRUE(eye.rest().empty());
}

TEST(EdgeCase, PolynomialTrimDropsZeros) {
  la::Polynomial p({1.0, 2.0, 0.0, 0.0});
  p.trim();
  EXPECT_EQ(p.degree(), 1);
  la::Polynomial zero({0.0, 0.0});
  zero.trim();
  EXPECT_EQ(zero.degree(), 0);
}

TEST(EdgeCase, MinmaxRejectsBadIntervals) {
  EXPECT_THROW((void)core::minmax_alphas(3, {-0.1, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)core::minmax_alphas(0, {0.1, 1.0}),
               std::invalid_argument);
}

TEST(EdgeCase, LeastSquaresRejectsZeroSteps) {
  EXPECT_THROW((void)core::least_squares_alphas(0, core::ssor_interval()),
               std::invalid_argument);
}

TEST(EdgeCase, MachineSingleProcessorCollectives) {
  femsim::Machine m(1, femsim::FemCosts{});
  double sum = 0.0;
  bool flags = false;
  m.run([&](femsim::Proc& p) {
    sum = p.allreduce_sum(2.5);
    flags = p.all_flags(true);
    p.barrier();
  });
  EXPECT_DOUBLE_EQ(sum, 2.5);
  EXPECT_TRUE(flags);
}

TEST(EdgeCase, MachineRejectsZeroProcessors) {
  EXPECT_THROW(femsim::Machine(0, femsim::FemCosts{}), std::invalid_argument);
}

TEST(EdgeCase, MachineManySmallMessages) {
  // Stress the mailbox under interleaved tags and senders.
  femsim::Machine m(3, femsim::FemCosts{});
  std::vector<double> sums(3, 0.0);
  m.run([&](femsim::Proc& p) {
    const int r = p.rank();
    for (int round = 0; round < 50; ++round) {
      for (int q = 0; q < 3; ++q) {
        if (q != r) p.send(q, round, {static_cast<double>(r + round)});
      }
      double s = 0.0;
      for (int q = 0; q < 3; ++q) {
        if (q != r) s += p.recv(q, round)[0];
      }
      sums[r] += s;
    }
  });
  // Each proc receives (sum of other ranks + 2*round) every round.
  double expect0 = 0.0;
  for (int round = 0; round < 50; ++round) expect0 += 1 + 2 + 2 * round;
  EXPECT_DOUBLE_EQ(sums[0], expect0);
}

TEST(EdgeCase, ColoredSystemSingleClassOnDiagonalMatrix) {
  // A purely diagonal matrix is decoupled even with ONE class.
  la::CooBuilder b(4, 4);
  for (index_t i = 0; i < 4; ++i) b.add(i, i, 2.0 + i);
  const auto a = b.build();
  color::ColorClasses one;
  one.classes.assign(1, {0, 1, 2, 3});
  const auto cs = color::make_colored_system(a, one);
  const core::MulticolorMStepSsor prec(cs, {1.0});
  Vec z;
  const Vec r = {2.0, 3.0, 4.0, 5.0};
  prec.apply(r, z);
  for (index_t i = 0; i < 4; ++i) EXPECT_NEAR(z[i], r[i] / (2.0 + i), 1e-14);
}

TEST(EdgeCase, UnitDiagonalScalingInvariance) {
  // kappa(M^{-1}K) is invariant under scaling all alphas; PCG iteration
  // counts must be too.
  const fem::PlateMesh mesh(6, 6);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  const auto cs = color::make_colored_system(sys.stiffness,
                                             color::six_color_classes(mesh));
  const Vec f = cs.permute(sys.load);
  auto alphas = core::least_squares_alphas(3, core::ssor_interval());
  core::PcgOptions opt;
  opt.tolerance = 1e-9;
  opt.stop_rule = core::StopRule::kResidual2;
  const core::MulticolorMStepSsor p1(cs, alphas);
  const auto r1 = core::pcg_solve(cs.matrix, f, p1, opt);
  for (auto& v : alphas) v *= 17.0;
  const core::MulticolorMStepSsor p2(cs, alphas);
  const auto r2 = core::pcg_solve(cs.matrix, f, p2, opt);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

}  // namespace
}  // namespace mstep
