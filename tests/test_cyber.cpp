// Tests for the CYBER 203/205 vector timing model and the Table 2 driver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "cyber/masked_layout.hpp"
#include "cyber/table2_driver.hpp"
#include "cyber/vector_model.hpp"
#include "fem/plane_stress.hpp"
#include "util/rng.hpp"

namespace mstep::cyber {
namespace {

TEST(VectorModel, EfficiencyMatchesPaperAnchors) {
  // Section 3.1: ~90% at n=1000, ~50% at n=100, ~10% at n=10.
  const CyberParams p;
  EXPECT_NEAR(p.efficiency(1000), 0.90, 0.02);
  EXPECT_NEAR(p.efficiency(100), 0.50, 0.01);
  EXPECT_NEAR(p.efficiency(10), 0.10, 0.01);
}

TEST(VectorModel, VecOpTimeIsAffineInLength) {
  CyberModel m;
  m.vec_op(1000, 1);
  const double t1000 = m.seconds();
  m.reset();
  m.vec_op(2000, 1);
  const double t2000 = m.seconds();
  // Affine law: t(2000) - t(1000) = tau * 1000 exactly.
  EXPECT_NEAR(t2000 - t1000, m.params().tau * 1000.0, 1e-15);
}

TEST(VectorModel, DotCostsMoreThanVecOp) {
  // "considerably slower than the other vector operations"
  CyberModel m;
  m.vec_op(500, 1);
  const double vec = m.seconds();
  m.reset();
  m.dot_op(500);
  EXPECT_GT(m.seconds(), 2.0 * vec);
}

TEST(VectorModel, SpmvScalesWithDiagonalCount) {
  CyberModel m;
  m.spmv_diagonals(1000, 5);
  const double t5 = m.seconds();
  m.reset();
  m.spmv_diagonals(1000, 10);
  EXPECT_NEAR(m.seconds(), 2.0 * t5, 1e-12);
}

TEST(VectorModel, CategoriesSumToTotal) {
  CyberModel m;
  m.vec_op(100, 3);
  m.dot_op(200);
  m.spmv_diagonals(100, 4);
  m.diag_op(50);
  m.max_op(80);
  EXPECT_NEAR(m.vector_seconds() + m.dot_seconds() + m.spmv_seconds(),
              m.seconds(), 1e-12);
}

TEST(CountingLog, CountsPcgKernels) {
  const fem::PlateMesh mesh(5, 5);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  core::CountingLog log;
  core::PcgOptions opt;
  opt.tolerance = std::numeric_limits<double>::denorm_min();  // unreachable
  opt.max_iterations = 4;  // run exactly 4 iterations
  (void)core::cg_solve(sys.stiffness, sys.load, opt, &log);
  EXPECT_EQ(log.iterations, 4);
  // 1 initial dot + 2 per iteration (the run never converges, so even the
  // final iteration computes its beta dot).
  EXPECT_EQ(log.dots, 1 + 2 * 4);
  // 1 initial residual SpMV + 1 per iteration.
  EXPECT_EQ(log.spmvs, 1 + 4);
  EXPECT_EQ(log.maxes, 4);
  EXPECT_GT(log.flops, 0);
}

TEST(CountingLog, PrecondStepsCounted) {
  const fem::PlateMesh mesh(5, 5);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  const auto cs = color::make_colored_system(sys.stiffness,
                                             color::six_color_classes(mesh));
  core::CountingLog log;
  const int m = 3;
  const core::MulticolorMStepSsor prec(cs, core::unparametrized_alphas(m),
                                       &log);
  core::PcgOptions opt;
  opt.tolerance = std::numeric_limits<double>::denorm_min();  // unreachable
  opt.max_iterations = 5;
  (void)core::pcg_solve(cs.matrix, cs.permute(sys.load), prec, opt, &log);
  // (iterations + 1 initial) preconditioner applications, m steps each.
  EXPECT_EQ(log.precond_steps, (5 + 1) * m);
}

// ---- the padded CYBER layout (Section 3.1) -------------------------------------

TEST(MaskedLayout, ClassLengthsCoverAllNodes) {
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(10);
  const auto layout = MaskedLayout::build(mesh);
  EXPECT_EQ(layout.padded_size(), 2 * mesh.num_nodes());
  EXPECT_EQ(layout.num_classes(), 6);
  index_t total = 0;
  for (int k = 0; k < 6; ++k) total += layout.class_length(k);
  EXPECT_EQ(total, layout.padded_size());
}

TEST(MaskedLayout, MaxClassLengthIsASquaredOverThree) {
  // The paper: "the maximum vector length for our test problem is [a^2/3]
  // and is around 1000 when a = 55".
  for (int a : {20, 41, 55}) {
    const fem::PlateMesh mesh = fem::PlateMesh::unit_square(a);
    const auto layout = MaskedLayout::build(mesh);
    EXPECT_NEAR(static_cast<double>(layout.max_class_length()),
                a * a / 3.0, 2.0)
        << "a=" << a;
  }
  const auto l55 =
      MaskedLayout::build(fem::PlateMesh::unit_square(55)).max_class_length();
  EXPECT_NEAR(static_cast<double>(l55), 1000.0, 15.0);
}

TEST(MaskedLayout, ControlVectorSuppressesConstrainedColumn) {
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(6);
  const auto layout = MaskedLayout::build(mesh);
  index_t suppressed = 0;
  for (index_t slot = 0; slot < layout.padded_size(); ++slot) {
    if (!layout.control()[slot]) {
      ++suppressed;
      EXPECT_EQ(layout.equation_at(slot), -1);
    } else {
      EXPECT_GE(layout.equation_at(slot), 0);
    }
  }
  // Two dofs per constrained node (the left column).
  EXPECT_EQ(suppressed, 2 * mesh.nrows());
  EXPECT_NEAR(layout.live_fraction(),
              static_cast<double>(mesh.num_equations()) /
                  (2.0 * mesh.num_nodes()),
              1e-12);
}

TEST(MaskedLayout, ExpandCompressRoundTrip) {
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(7);
  const auto layout = MaskedLayout::build(mesh);
  util::Rng rng(4);
  const Vec compressed = rng.uniform_vector(mesh.num_equations());
  const Vec padded = layout.expand(compressed);
  const Vec back = layout.compress(padded);
  ASSERT_EQ(back.size(), compressed.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i], compressed[i]);
  }
  // Suppressed slots stay zero after expand.
  for (index_t slot = 0; slot < layout.padded_size(); ++slot) {
    if (!layout.control()[slot]) {
      EXPECT_DOUBLE_EQ(padded[slot], 0.0);
    }
  }
}

TEST(MaskedLayout, SlotMappingIsConsistent) {
  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(5);
  const auto layout = MaskedLayout::build(mesh);
  for (index_t eq = 0; eq < mesh.num_equations(); ++eq) {
    EXPECT_EQ(layout.equation_at(layout.slot_of(eq)), eq);
  }
}

TEST(Table2Driver, QuickSweepHasExpectedLayout) {
  Table2Options opt;
  opt.plate_sizes = {8};
  opt.max_m = 3;
  opt.both_variants_up_to = 2;
  const auto cols = run_table2(opt);
  ASSERT_EQ(cols.size(), 1u);
  const auto& c = cols[0];
  EXPECT_EQ(c.n, 2 * 8 * 7);
  // rows: m=0, m=1, m=2, m=2P, m=3P.
  ASSERT_EQ(c.rows.size(), 5u);
  EXPECT_EQ(c.rows[0].m, 0);
  EXPECT_EQ(c.rows[3].m, 2);
  EXPECT_TRUE(c.rows[3].parametrized);
  for (const auto& row : c.rows) {
    EXPECT_TRUE(row.converged);
    EXPECT_GT(row.model_seconds, 0.0);
  }
}

TEST(Table2Driver, MaxVectorLengthNearASquaredOverThree) {
  Table2Options opt;
  opt.plate_sizes = {20};
  opt.max_m = 0;
  const auto cols = run_table2(opt);
  // v ~ a^2/3 (the paper quotes 132 for a=20; class sizes differ slightly
  // because only unconstrained columns carry equations).
  EXPECT_NEAR(static_cast<double>(cols[0].max_vector_len), 20.0 * 20.0 / 3.0,
              15.0);
}

TEST(Table2Driver, ParametrizedNeverSlowerAtEqualM) {
  Table2Options opt;
  opt.plate_sizes = {12};
  opt.max_m = 3;
  opt.both_variants_up_to = 3;
  const auto cols = run_table2(opt);
  int iters_plain[4] = {0, 0, 0, 0};
  int iters_param[4] = {0, 0, 0, 0};
  for (const auto& row : cols[0].rows) {
    if (row.m >= 2 && row.m <= 3) {
      (row.parametrized ? iters_param : iters_plain)[row.m] = row.iterations;
    }
  }
  for (int m = 2; m <= 3; ++m) {
    EXPECT_LE(iters_param[m], iters_plain[m]) << "m=" << m;
  }
}

TEST(CostDecomposition, BothPositiveAndBSmallerThanA) {
  const auto ab = measure_cost_decomposition(12, CyberParams{});
  EXPECT_GT(ab.a_seconds, 0.0);
  EXPECT_GT(ab.b_seconds, 0.0);
  // One preconditioner step costs less than a full CG iteration (which
  // contains a full SpMV plus two inner products).
  EXPECT_LT(ab.b_seconds, ab.a_seconds);
}

TEST(CostDecomposition, Eq41FitPredictsModelTime) {
  // T_m ~ N_m (A + mB): check the fit against a real modelled run.
  const int a = 16;
  const auto ab = measure_cost_decomposition(a, CyberParams{});
  Table2Options opt;
  opt.plate_sizes = {a};
  opt.max_m = 4;
  opt.both_variants_up_to = 0;
  const auto cols = run_table2(opt);
  for (const auto& row : cols[0].rows) {
    if (row.m < 2) continue;
    const double fit = row.iterations * (ab.a_seconds + row.m * ab.b_seconds);
    EXPECT_NEAR(fit / row.model_seconds, 1.0, 0.25)
        << "m=" << row.m << " fit=" << fit << " model=" << row.model_seconds;
  }
}

}  // namespace
}  // namespace mstep::cyber
