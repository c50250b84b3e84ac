// Integration tests: splittings, the m-step preconditioner (generic and
// multicolor Algorithm-2 forms), and PCG (Algorithm 1).  The pipeline
// comparison tests (preconditioned vs plain, m sweeps, parametrized vs
// not) run through the Solver facade — the path every example and bench
// uses; the operator-level unit tests stay on the low-level classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/baselines.hpp"
#include "core/condition.hpp"
#include "core/mstep.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "la/dense_matrix.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::core {
namespace {

struct Plate {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  Vec f;
  color::ColoredSystem cs;
  Vec f_colored;
};

Plate make_plate(int rows, int cols) {
  fem::PlateMesh mesh(rows, cols);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                        fem::EdgeLoad{1.0, 0.0});
  auto cs = color::make_colored_system(sys.stiffness,
                                       color::six_color_classes(mesh));
  Vec fc = cs.permute(sys.load);
  return {std::move(mesh), std::move(sys.stiffness), std::move(sys.load),
          std::move(cs), std::move(fc)};
}

// ---- splittings -------------------------------------------------------------

TEST(Jacobi, PinvIsInverseDiagonal) {
  const auto p = make_plate(3, 3);
  const split::JacobiSplitting jac(p.k);
  util::Rng rng(1);
  const Vec x = rng.uniform_vector(p.k.rows());
  Vec y;
  jac.apply_pinv(x, y);
  const Vec d = p.k.diagonal();
  for (index_t i = 0; i < p.k.rows(); ++i) {
    EXPECT_NEAR(y[i], x[i] / d[i], 1e-14);
  }
}

TEST(Ssor, PinvMatchesDenseFormula) {
  // P = (1/(w(2-w))) (D - wL) D^{-1} (D - wU): check P * pinv(x) == x
  // against a dense construction.
  const auto p = make_plate(3, 3);
  for (double omega : {0.8, 1.0, 1.3}) {
    const split::SsorSplitting ssor(p.k, omega);
    const la::DenseMatrix kd = p.k.to_dense();
    const index_t n = p.k.rows();
    la::DenseMatrix dl(n, n), du(n, n), dinv(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        if (i == j) {
          dl(i, j) = kd(i, j);
          du(i, j) = kd(i, j);
          dinv(i, j) = 1.0 / kd(i, j);
        } else if (j < i) {
          dl(i, j) = omega * kd(i, j);
        } else {
          du(i, j) = omega * kd(i, j);
        }
      }
    }
    la::DenseMatrix pd = dl.multiply(dinv).multiply(du);
    util::Rng rng(7);
    const Vec x = rng.uniform_vector(n);
    Vec y;
    ssor.apply_pinv(x, y);
    const Vec px = pd.multiply(y);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(px[i] / (omega * (2.0 - omega)), x[i], 1e-10);
    }
  }
}

TEST(Ssor, RejectsBadOmega) {
  const auto p = make_plate(3, 3);
  EXPECT_THROW(split::SsorSplitting(p.k, 0.0), std::invalid_argument);
  EXPECT_THROW(split::SsorSplitting(p.k, 2.0), std::invalid_argument);
}

TEST(Ssor, SpectrumOfPinvKIsInUnitInterval) {
  // The theory behind the [0, 1] parameter interval (ssor_interval()).
  const auto p = make_plate(4, 4);
  const split::SsorSplitting ssor(p.k, 1.0);
  // Dense eigenvalues of P^{-1}K via similarity: eig(P^{-1}K) = eig of
  // generalized problem; compute from dense P^{-1} * K.
  const index_t n = p.k.rows();
  la::DenseMatrix pik(n, n);
  Vec e(n, 0.0), col(n);
  for (index_t j = 0; j < n; ++j) {
    e.assign(n, 0.0);
    e[j] = 1.0;
    Vec kj;
    p.k.multiply(e, kj);
    ssor.apply_pinv(kj, col);
    for (index_t i = 0; i < n; ++i) pik(i, j) = col[i];
  }
  // P^{-1}K is similar to the symmetric P^{-1/2}KP^{-1/2}; its eigenvalues
  // are real.  Estimate extremes via power iteration on the matrix and on
  // (I - matrix); simpler: use dense eigensolver on symmetrized form
  // S = K^{1/2} P^{-1} K^{1/2} — skip and check Rayleigh quotients instead.
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Vec x = rng.uniform_vector(n);
    // Rayleigh quotient in K-inner product: (x, P^{-1}K x)_K / (x, x)_K.
    Vec kx;
    p.k.multiply(x, kx);
    Vec pikx = pik.multiply(x);
    Vec kpikx;
    p.k.multiply(pikx, kpikx);
    const double rq = la::dot(x, kpikx) / la::dot(x, kx);
    EXPECT_GT(rq, 0.0);
    EXPECT_LT(rq, 1.0 + 1e-10);
  }
}

// ---- m-step preconditioner ---------------------------------------------------

TEST(MStep, OneStepJacobiEqualsScaledDiagonalSolve) {
  const auto p = make_plate(3, 4);
  const split::JacobiSplitting jac(p.k);
  const la::CsrOperator k(p.k);
  const MStepPreconditioner m1(k, jac, {1.0});
  util::Rng rng(4);
  const Vec r = rng.uniform_vector(p.k.rows());
  Vec z1, z2;
  m1.apply(r, z1);
  jac.apply_pinv(r, z2);
  for (index_t i = 0; i < p.k.rows(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-14);
}

TEST(MStep, MatchesExplicitPolynomialInG) {
  // M^{-1} = (a0 + a1 G + a2 G^2) P^{-1} — verify against a dense build.
  const auto p = make_plate(3, 3);
  const split::JacobiSplitting jac(p.k);
  const std::vector<double> alphas = {0.7, -0.2, 1.3};
  const la::CsrOperator k(p.k);
  const MStepPreconditioner m(k, jac, alphas);

  const index_t n = p.k.rows();
  // Dense G = I - P^{-1}K.
  la::DenseMatrix g(n, n);
  const Vec d = p.k.diagonal();
  const la::DenseMatrix kd = p.k.to_dense();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      g(i, j) = (i == j ? 1.0 : 0.0) - kd(i, j) / d[i];
    }
  }
  util::Rng rng(5);
  const Vec r = rng.uniform_vector(n);
  Vec pinv_r;
  jac.apply_pinv(r, pinv_r);
  Vec expect(n, 0.0);
  Vec gk = pinv_r;  // G^k P^{-1} r
  for (std::size_t t = 0; t < alphas.size(); ++t) {
    la::axpy(alphas[t], gk, expect);
    gk = g.multiply(gk);
  }
  Vec z;
  m.apply(r, z);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(z[i], expect[i], 1e-11);
}

TEST(MStep, PreconditionerMatrixIsSymmetric) {
  // M^{-1} must be symmetric when P is symmetric: build dense M^{-1} by
  // columns and check.
  const auto p = make_plate(3, 3);
  const split::SsorSplitting ssor(p.k, 1.0);
  const la::CsrOperator k(p.k);
  const MStepPreconditioner m(k, ssor, least_squares_alphas(3, ssor_interval()));
  const index_t n = p.k.rows();
  la::DenseMatrix minv(n, n);
  Vec e(n), z(n);
  for (index_t j = 0; j < n; ++j) {
    e.assign(n, 0.0);
    e[j] = 1.0;
    m.apply(e, z);
    for (index_t i = 0; i < n; ++i) minv(i, j) = z[i];
  }
  EXPECT_TRUE(minv.is_symmetric(1e-10));
  // ... and positive definite (all eigenvalues > 0).
  const auto ev = la::symmetric_eigenvalues(minv);
  EXPECT_GT(ev.front(), 0.0);
}

TEST(MStep, UnparametrizedAlphasAreAllOnes) {
  const auto a = unparametrized_alphas(4);
  EXPECT_EQ(a, (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
}

// ---- Algorithm 2 equivalence ---------------------------------------------------

class MulticolorEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MulticolorEquivalence, MatchesGenericSsorEngine) {
  // The Conrad–Wallach multicolor implementation must produce the same
  // operator as the generic m-step engine on the SSOR splitting of the
  // permuted matrix.
  const int m = GetParam();
  const auto p = make_plate(5, 6);
  const split::SsorSplitting ssor(p.cs.matrix, 1.0);
  const auto alphas = least_squares_alphas(m, ssor_interval());
  const la::CsrOperator k(p.cs.matrix);
  const MStepPreconditioner generic(k, ssor, alphas);
  const MulticolorMStepSsor colored(p.cs, alphas);

  util::Rng rng(m);
  const Vec r = rng.uniform_vector(p.cs.size());
  Vec z1, z2;
  generic.apply(r, z1);
  colored.apply(r, z2);
  double err = 0.0, scale = 0.0;
  for (index_t i = 0; i < p.cs.size(); ++i) {
    err = std::max(err, std::abs(z1[i] - z2[i]));
    scale = std::max(scale, std::abs(z1[i]));
  }
  EXPECT_LT(err, 1e-11 * std::max(1.0, scale)) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Steps, MulticolorEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 10));

TEST(Multicolor, WorksWithTwoColors) {
  const fem::PoissonProblem prob(6, 6);
  const auto a = prob.matrix();
  const auto cs =
      color::make_colored_system(a, color::two_color_classes(prob));
  const split::SsorSplitting ssor(cs.matrix, 1.0);
  const auto alphas = least_squares_alphas(3, ssor_interval());
  const la::CsrOperator k(cs.matrix);
  const MStepPreconditioner generic(k, ssor, alphas);
  const MulticolorMStepSsor colored(cs, alphas);
  util::Rng rng(8);
  const Vec r = rng.uniform_vector(cs.size());
  Vec z1, z2;
  generic.apply(r, z1);
  colored.apply(r, z2);
  for (index_t i = 0; i < cs.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-11);
}

TEST(Multicolor, RejectsNonDecoupledSystem) {
  // Feeding a coloured system whose diagonal blocks are NOT diagonal must
  // throw: build one by putting everything in one class.
  const fem::PoissonProblem prob(3, 3);
  const auto a = prob.matrix();
  color::ColorClasses one;
  one.classes.assign(1, {});
  for (index_t i = 0; i < a.rows(); ++i) one.classes[0].push_back(i);
  const auto cs = color::make_colored_system(a, one);
  EXPECT_THROW(MulticolorMStepSsor(cs, {1.0}), std::invalid_argument);
}

// ---- PCG (Algorithm 1) -----------------------------------------------------------

TEST(Pcg, PlainCgSolvesPlate) {
  const auto p = make_plate(5, 5);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  const auto res = cg_solve(p.k, p.f, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_residual2, 1e-6);
}

TEST(Pcg, SolutionMatchesDirectSolve) {
  const auto p = make_plate(4, 5);
  PcgOptions opt;
  opt.tolerance = 1e-12;
  opt.stop_rule = StopRule::kResidual2;
  const auto res = cg_solve(p.k, p.f, opt);
  const Vec exact = la::solve_cholesky(p.k.to_dense(), p.f);
  for (index_t i = 0; i < p.k.rows(); ++i) {
    EXPECT_NEAR(res.solution[i], exact[i], 1e-7);
  }
}

TEST(Pcg, PreconditioningReducesIterations) {
  const auto p = make_plate(8, 8);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto classes = color::six_color_classes(p.mesh);

  auto plain_cfg = cfg;
  plain_cfg.steps = 0;
  const auto plain =
      solver::Solver::from_config(plain_cfg).solve(p.k, p.f, classes);

  cfg.steps = 3;
  const auto pre = solver::Solver::from_config(cfg).solve(p.k, p.f, classes);

  EXPECT_TRUE(plain.converged());
  EXPECT_TRUE(pre.converged());
  EXPECT_LT(pre.iterations(), plain.iterations() / 2);
  // Same solution either way (both reports are in the mesh ordering).
  double err = 0.0;
  for (index_t i = 0; i < p.cs.size(); ++i) {
    err = std::max(err, std::abs(pre.solution[i] - plain.solution[i]));
  }
  EXPECT_LT(err, 1e-5);
}

TEST(Pcg, IterationsDecreaseMonotonicallyInM) {
  const auto p = make_plate(8, 8);
  const auto classes = color::six_color_classes(p.mesh);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  int prev = 1 << 30;
  for (int m = 1; m <= 5; ++m) {
    cfg.steps = m;
    const auto res = solver::Solver::from_config(cfg).solve(p.k, p.f, classes);
    EXPECT_TRUE(res.converged());
    EXPECT_LE(res.iterations(), prev) << "m=" << m;
    prev = res.iterations();
  }
}

TEST(Pcg, ParametrizedBeatsUnparametrized) {
  // Observation (1) of the paper's Table 2 discussion.
  const auto p = make_plate(10, 10);
  const auto classes = color::six_color_classes(p.mesh);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  for (int m : {2, 3, 4}) {
    cfg.steps = m;
    cfg.params = "ones";
    const auto run = solver::Solver::from_config(cfg).solve(p.k, p.f, classes);
    cfg.params = "lsq";
    const auto rpar =
        solver::Solver::from_config(cfg).solve(p.k, p.f, classes);
    EXPECT_LE(rpar.iterations(), run.iterations()) << "m=" << m;
  }
}

TEST(Pcg, InnerProductCountIsTwoPerIteration) {
  const auto p = make_plate(5, 5);
  PcgOptions opt;
  opt.tolerance = 1e-6;
  const auto res = cg_solve(p.k, p.f, opt);
  // 1 initial + 2 per iteration (the final iteration skips the beta dot).
  EXPECT_LE(res.inner_products, 2LL * res.iterations + 1);
  EXPECT_GE(res.inner_products, 2LL * res.iterations - 1);
}

TEST(Pcg, HonorsInitialGuess) {
  const auto p = make_plate(4, 4);
  PcgOptions opt;
  opt.tolerance = 1e-10;
  opt.stop_rule = StopRule::kResidual2;
  const auto cold = cg_solve(p.k, p.f, opt);
  // Start from the exact solution: should converge immediately.
  const auto warm = cg_solve(p.k, p.f, opt, nullptr, cold.solution);
  EXPECT_LE(warm.iterations, 2);
}

TEST(Pcg, RecordsHistoryWhenAsked) {
  const auto p = make_plate(4, 4);
  PcgOptions opt;
  opt.tolerance = 1e-8;
  opt.record_history = true;
  const auto res = cg_solve(p.k, p.f, opt);
  EXPECT_EQ(static_cast<int>(res.history.size()), res.iterations);
  EXPECT_LT(res.history.back().value, opt.tolerance);
  for (const auto& rec : res.history) EXPECT_GE(rec.seconds, 0.0);
}

TEST(Pcg, ResidualStopRuleWorks) {
  const auto p = make_plate(5, 5);
  PcgOptions opt;
  opt.tolerance = 1e-9;
  opt.stop_rule = StopRule::kResidual2;
  const auto res = cg_solve(p.k, p.f, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_residual2, 1e-9 * la::nrm2(p.f) * 1.01);
}

TEST(Pcg, MaxIterationsRespected) {
  const auto p = make_plate(8, 8);
  PcgOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 3;
  const auto res = cg_solve(p.k, p.f, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
}

// ---- one iteration body: breakdown and the block census ---------------------

/// Decoupled copies of the 5-point Laplacian on `grid` (diagonal 4,
/// off-diagonals -1), copy b shifted by -shifts[b]: symmetric with a
/// positive diagonal, and indefinite once a shift passes the smallest
/// eigenvalue 4 - 4 cos(pi h).  Copy b holds unknowns [b n, (b + 1) n).
la::CsrMatrix shifted_laplacians(const fem::PoissonProblem& grid,
                                 const std::vector<double>& shifts) {
  const index_t n = grid.num_unknowns();
  const auto copies = static_cast<index_t>(shifts.size());
  la::CooBuilder builder(copies * n, copies * n);
  for (index_t b = 0; b < copies; ++b) {
    const auto id = [&](int i, int j) { return b * n + grid.unknown_id(i, j); };
    for (int j = 0; j < grid.ny(); ++j) {
      for (int i = 0; i < grid.nx(); ++i) {
        builder.add(id(i, j), id(i, j), 4.0 - shifts[b]);
        if (i > 0) builder.add(id(i, j), id(i - 1, j), -1.0);
        if (i < grid.nx() - 1) builder.add(id(i, j), id(i + 1, j), -1.0);
        if (j > 0) builder.add(id(i, j), id(i, j - 1), -1.0);
        if (j < grid.ny() - 1) builder.add(id(i, j), id(i, j + 1), -1.0);
      }
    }
  }
  return builder.build();
}

/// Eigenvector sin(a pi x) sin(a pi y) of the Laplacian on the square
/// grid, eigenvalue 4 - 4 cos(a pi h) before the shift, placed in copy
/// `copy` of `copies`.
Vec laplacian_mode(const fem::PoissonProblem& grid, int a, int copy = 0,
                   int copies = 1) {
  const Vec mode = grid.grid_function([a](double x, double y) {
    return std::sin(a * M_PI * x) * std::sin(a * M_PI * y);
  });
  Vec v(mode.size() * copies, 0.0);
  std::copy(mode.begin(), mode.end(), v.begin() + mode.size() * copy);
  return v;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_result(const PcgResult& single, const PcgResult& column,
                        const std::string& what) {
  EXPECT_EQ(single.converged, column.converged) << what;
  EXPECT_EQ(single.iterations, column.iterations) << what;
  EXPECT_TRUE(same_bits(single.final_delta_inf, column.final_delta_inf))
      << what;
  EXPECT_TRUE(same_bits(single.final_residual2, column.final_residual2))
      << what;
  EXPECT_EQ(single.inner_products, column.inner_products) << what;
  EXPECT_EQ(single.precond_applications, column.precond_applications)
      << what;
  ASSERT_EQ(single.solution.size(), column.solution.size()) << what;
  for (std::size_t i = 0; i < single.solution.size(); ++i) {
    ASSERT_TRUE(same_bits(single.solution[i], column.solution[i]))
        << what << " i=" << i;
  }
}

// A breakdown (p^T K p <= 0) stops the solve unconverged in the iteration
// it happens, with the true final residual and exact counters.
TEST(Pcg, BreakdownStopsUnconvergedWithExactCounters) {
  // sigma = 1 puts the smoothest mode's eigenvalue at -0.76.  With f half
  // that mode, p0 = f has negative curvature: iteration 0 breaks down.
  // Adding the (positive) highest mode makes p0's curvature positive; p1
  // is K-conjugate to p0 in their two-mode span, so it has negative
  // curvature: iteration 1 breaks down.
  const fem::PoissonProblem grid(8, 8);
  const la::CsrMatrix k = shifted_laplacians(grid, {1.0});
  for (const int breaks_at : {0, 1}) {
    Vec f = laplacian_mode(grid, 1);
    la::scale(0.5, f);
    if (breaks_at == 1) la::axpy(1.0, laplacian_mode(grid, 8), f);
    PcgOptions opt;
    opt.record_history = true;
    CountingLog log;
    const PcgResult res = cg_solve(k, f, opt, &log);
    const std::string what = "breaks_at=" + std::to_string(breaks_at);
    EXPECT_FALSE(res.converged) << what;
    EXPECT_EQ(res.iterations, breaks_at) << what;
    // rho0, then (p, K p) and rho_new per finished iteration, then the
    // curvature that broke down.
    EXPECT_EQ(res.inner_products, 2 + 2 * breaks_at) << what;
    EXPECT_EQ(res.precond_applications, 1 + breaks_at) << what;
    EXPECT_EQ(res.history.size(), static_cast<std::size_t>(breaks_at))
        << what;
    // The final residual is the true one of the iterate the solve
    // stopped at.
    Vec r = f;
    k.multiply_sub(res.solution, r);
    EXPECT_TRUE(same_bits(res.final_residual2, la::nrm2(r))) << what;
    EXPECT_GT(res.final_residual2, 0.0) << what;
    // The kernel stream stops at the breakdown.
    EXPECT_EQ(log.spmvs, 2 + breaks_at) << what;
    EXPECT_EQ(log.dots, 2 + 2 * breaks_at) << what;
    EXPECT_EQ(log.maxes, breaks_at) << what;
    EXPECT_EQ(log.iterations, breaks_at) << what;
  }
}

// One column of a block breaks down: it stops as its own solve does, and
// the columns that converge, exit at once or run on stay bitwise theirs.
// The matrix is two decoupled grids, the first shifted past its smallest
// eigenvalue, the second SPD; columns supported on the second never see
// the negative mode, because M and K keep the grids apart.
TEST(PcgBlock, BreakdownColumnStopsAloneAndTheOthersStayBitwise) {
  const fem::PoissonProblem grid(8, 8);
  const index_t n = grid.num_unknowns();
  color::ColorClasses red_black;
  red_black.classes.resize(2);
  for (index_t b = 0; b < 2; ++b) {
    for (int j = 0; j < grid.ny(); ++j) {
      for (int i = 0; i < grid.nx(); ++i) {
        red_black.classes[static_cast<std::size_t>(grid.color(i, j))]
            .push_back(b * n + grid.unknown_id(i, j));
      }
    }
  }
  const auto cs = color::make_colored_system(
      shifted_laplacians(grid, {0.5, 0.0}), red_black);
  const MulticolorMStepSsor m(cs, unparametrized_alphas(2));
  // The singles run on CSR, the block on the run storage: bitwise the same
  // products.
  const la::CsrOperator k(cs.matrix);
  const la::DiaMatrix store = la::DiaMatrix::from_csr(cs.matrix);
  util::Rng rng(3);
  Vec on_spd = rng.uniform_vector(static_cast<std::size_t>(2 * n));
  std::fill(on_spd.begin(), on_spd.begin() + n, 0.0);
  std::vector<Vec> fs = {cs.permute(on_spd),
                         cs.permute(laplacian_mode(grid, 1, 0, 2)),
                         Vec(static_cast<std::size_t>(2 * n), 0.0),
                         cs.permute(laplacian_mode(grid, 3, 1, 2))};
  PcgOptions opt;
  opt.tolerance = 1e-10;
  for (const int limit : {200, 3}) {
    opt.max_iterations = limit;
    std::vector<PcgResult> singles;
    for (const Vec& f : fs) singles.push_back(pcg_solve(k, f, m, opt));
    std::vector<Vec> spent = fs;  // the block spends its right-hand sides
    const std::vector<PcgResult> block = pcg_solve_block(
        store, util::Span<Vec>(spent.data(), spent.size()), m, opt);
    const std::string what = "limit=" + std::to_string(limit);
    for (std::size_t c = 0; c < fs.size(); ++c) {
      expect_same_result(singles[c], block[c],
                         what + " column " + std::to_string(c));
    }
    // Column 0 converges in 12 iterations or stops at the limit of 3,
    // column 2 exits at once and column 3 converges in 3.
    EXPECT_EQ(block[0].converged, limit > 12) << what;
    EXPECT_EQ(block[0].iterations, std::min(limit, 12)) << what;
    EXPECT_TRUE(block[2].converged && block[2].iterations == 0) << what;
    EXPECT_TRUE(block[3].converged && block[3].iterations == 3) << what;
    // Column 1 breaks down in iteration 0, below either limit.
    EXPECT_FALSE(block[1].converged) << what;
    EXPECT_EQ(block[1].iterations, 0) << what;
    EXPECT_EQ(block[1].inner_products, 2) << what;
    EXPECT_EQ(block[1].precond_applications, 1) << what;
    EXPECT_TRUE(same_bits(block[1].final_residual2, la::nrm2(fs[1]))) << what;
  }
}

// A block narrates what its columns' single solves narrate: the solver
// and the sweep engine each speak once per live column, so the block's
// census is the sum of its columns' censuses.
TEST(PcgBlock, KernelCensusIsTheSumOfItsColumns) {
  const auto p = make_plate(6, 6);
  const index_t n = p.cs.size();
  util::Rng rng(5);
  std::vector<Vec> fs = {p.f_colored, Vec(static_cast<std::size_t>(n), 0.0),
                         rng.uniform_vector(static_cast<std::size_t>(n)),
                         p.f_colored};
  la::scale(1e-6, fs[3]);  // stops early under the absolute |du|_inf rule
  PcgOptions opt;
  opt.tolerance = 1e-8;
  const auto alphas = least_squares_alphas(3, ssor_interval());
  const la::CsrOperator k(p.cs.matrix);
  const la::DiaMatrix store = la::DiaMatrix::from_csr(p.cs.matrix);

  CountingLog singles;
  const MulticolorMStepSsor single_m(p.cs, alphas, &singles);
  std::set<int> stops;
  for (const Vec& f : fs) {
    stops.insert(pcg_solve(k, f, single_m, opt, &singles).iterations);
  }
  EXPECT_EQ(stops.size(), fs.size());  // every column stops on its own
  EXPECT_EQ(*stops.begin(), 0);        // the zero right-hand side

  CountingLog blocked;
  const MulticolorMStepSsor block_m(p.cs, alphas, &blocked);
  (void)pcg_solve_block(store, util::Span<Vec>(fs.data(), fs.size()),
                        block_m, opt, &blocked);
  EXPECT_EQ(blocked.vec_ops, singles.vec_ops);
  EXPECT_EQ(blocked.dots, singles.dots);
  EXPECT_EQ(blocked.maxes, singles.maxes);
  EXPECT_EQ(blocked.diag_ops, singles.diag_ops);
  EXPECT_EQ(blocked.spmvs, singles.spmvs);
  EXPECT_EQ(blocked.iterations, singles.iterations);
  EXPECT_EQ(blocked.precond_steps, singles.precond_steps);
  EXPECT_EQ(blocked.flops, singles.flops);
}

// ---- condition number (Adams 1982 claims) ------------------------------------

TEST(Condition, PreconditioningImprovesKappa) {
  const auto p = make_plate(8, 8);
  const auto plain = estimate_condition(p.cs.matrix);
  const MulticolorMStepSsor m2(p.cs, least_squares_alphas(2, ssor_interval()));
  const auto pre = estimate_preconditioned_condition(p.cs.matrix, m2);
  EXPECT_GT(plain.kappa, pre.kappa);
}

TEST(Condition, KappaDecreasesWithM) {
  const auto p = make_plate(8, 8);
  double prev = 1e300;
  for (int m = 1; m <= 5; ++m) {
    const MulticolorMStepSsor prec(p.cs,
                                   least_squares_alphas(m, ssor_interval()));
    const auto est = estimate_preconditioned_condition(p.cs.matrix, prec);
    EXPECT_LT(est.kappa, prev * 1.02) << "m=" << m;
    prev = est.kappa;
  }
}

TEST(Condition, MatchesDenseEigenvaluesOnSmallProblem) {
  const auto p = make_plate(4, 4);
  const auto est = estimate_condition(p.k);
  const auto ev = la::symmetric_eigenvalues(p.k.to_dense());
  EXPECT_NEAR(est.lambda_max, ev.back(), 1e-6 * ev.back());
  EXPECT_NEAR(est.lambda_min, ev.front(), 0.05 * ev.front());
}

// ---- baselines -----------------------------------------------------------------

TEST(Baselines, NeumannPreconditionerAcceleratesCg) {
  const auto p = make_plate(8, 8);
  PcgOptions opt;
  opt.tolerance = 1e-8;
  const auto plain = cg_solve(p.k, p.f, opt);
  const auto neumann = make_neumann_preconditioner(p.k, 3);
  const auto res = pcg_solve(p.k, p.f, *neumann, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, plain.iterations);
}

TEST(Baselines, JmpParametrizedBeatsPlainNeumann) {
  const auto p = make_plate(10, 10);
  PcgOptions opt;
  opt.tolerance = 1e-8;
  const auto neumann = make_neumann_preconditioner(p.k, 3);
  const auto jmp = make_jmp_preconditioner(p.k, 3);
  const auto rn = pcg_solve(p.k, p.f, *neumann, opt);
  const auto rj = pcg_solve(p.k, p.f, *jmp, opt);
  EXPECT_TRUE(rn.converged);
  EXPECT_TRUE(rj.converged);
  EXPECT_LE(rj.iterations, rn.iterations);
}

TEST(Baselines, SsorMStepBeatsJacobiMStepAtEqualM) {
  // The SSOR splitting approximates K better than Jacobi at the same m —
  // one facade config field flipped.
  const auto p = make_plate(10, 10);
  const auto classes = color::six_color_classes(p.mesh);
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  cfg.steps = 3;
  const auto rs = solver::Solver::from_config(cfg).solve(p.k, p.f, classes);
  cfg.splitting = "jacobi";
  const auto rj = solver::Solver::from_config(cfg).solve(p.k, p.f, classes);
  EXPECT_LT(rs.iterations(), rj.iterations());
}

}  // namespace
}  // namespace mstep::core
