// Standalone tests for the splitting layer: algebraic identities of the
// Jacobi, SSOR and Richardson splittings, and the CG/PCG invariants that
// depend on them.
#include <gtest/gtest.h>

#include <cmath>

#include "color/coloring.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/mstep.hpp"
#include "core/params.hpp"
#include "core/pcg.hpp"
#include "fem/plane_stress.hpp"
#include "fem/poisson.hpp"
#include "la/dense_matrix.hpp"
#include "split/splitting.hpp"
#include "util/rng.hpp"

namespace mstep::split {
namespace {

la::CsrMatrix poisson_matrix(int n) { return fem::PoissonProblem(n, n).matrix(); }

TEST(Richardson, PinvIsScaling) {
  const RichardsonSplitting r(5, 0.25);
  const Vec x = {4.0, -8.0, 0.0, 2.0, 1.0};
  Vec y;
  r.apply_pinv(x, y);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(y[i], 0.25 * x[i]);
}

TEST(Richardson, MStepSpectrumIsTransparent) {
  // With P = (1/theta) I, G = I - theta K; the m-step eigenvalue map is
  // s(theta*lambda) exactly.  Verify on the Poisson matrix via its known
  // extreme eigenvalues.
  const auto a = poisson_matrix(6);
  const auto ev = la::symmetric_eigenvalues(a.to_dense());
  const double theta = 1.0 / ev.back();
  const RichardsonSplitting rich(a.rows(), theta);
  const auto alphas = core::unparametrized_alphas(3);
  const la::CsrOperator k(a);
  const core::MStepPreconditioner prec(k, rich, alphas);

  // Dense M^{-1}K spectrum vs s(theta*lambda).
  const index_t n = a.rows();
  la::DenseMatrix mk(n, n);
  Vec e(n), z(n), kz(n);
  for (index_t j = 0; j < n; ++j) {
    e.assign(n, 0.0);
    e[j] = 1.0;
    a.multiply(e, kz);
    prec.apply(kz, z);
    for (index_t i = 0; i < n; ++i) mk(i, j) = z[i];
  }
  const la::Polynomial s = core::eigenvalue_map(alphas);
  // Trace identity: tr(M^{-1}K) = sum_i s(theta * lambda_i).
  double trace = 0.0;
  for (index_t i = 0; i < n; ++i) trace += mk(i, i);
  double expected = 0.0;
  for (double lam : ev) expected += s(theta * lam);
  EXPECT_NEAR(trace, expected, 1e-8 * std::abs(expected));
}

TEST(Jacobi, ThrowsOnNonPositiveDiagonal) {
  la::CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -2.0);
  const auto a = b.build();
  EXPECT_THROW(JacobiSplitting{a}, std::invalid_argument);
}

TEST(Ssor, QIsPositiveSemiDefinite) {
  // K = P - Q with Q = P - K; for SSOR, Q must be PSD (this is what puts
  // sigma(P^{-1}K) in (0, 1]).
  const auto a = poisson_matrix(5);
  const index_t n = a.rows();
  for (double omega : {0.7, 1.0, 1.4}) {
    const SsorSplitting ssor(a, omega);
    // Dense P from P^{-1} columns: P = (P^{-1})^{-1}.
    la::DenseMatrix pinv(n, n);
    Vec e(n), y(n);
    for (index_t j = 0; j < n; ++j) {
      e.assign(n, 0.0);
      e[j] = 1.0;
      ssor.apply_pinv(e, y);
      for (index_t i = 0; i < n; ++i) pinv(i, j) = y[i];
    }
    // Q = P - K; check x^T Q x >= 0 via x^T P x >= x^T K x on samples.
    util::Rng rng(11);
    for (int t = 0; t < 20; ++t) {
      const Vec x = rng.uniform_vector(n);
      const Vec px = la::solve_lu(pinv, x);  // P x
      Vec kx;
      a.multiply(x, kx);
      EXPECT_GE(la::dot(x, px), la::dot(x, kx) - 1e-9) << "omega=" << omega;
    }
  }
}

TEST(Ssor, OmegaScalingIdentityAtOne) {
  // At omega = 1 the scale factor omega(2-omega) = 1; P = (D-L)D^{-1}(D-U).
  const auto a = poisson_matrix(4);
  const SsorSplitting ssor(a, 1.0);
  // P^{-1} K applied to the constant vector: forward+diag+backward solves
  // must reproduce the dense computation.
  const index_t n = a.rows();
  const la::DenseMatrix kd = a.to_dense();
  la::DenseMatrix p(n, n);
  const Vec d = a.diagonal();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t k = 0; k < n; ++k) {
        const double dl = k <= i ? (k == i ? d[i] : kd(i, k)) : 0.0;
        const double du = k <= j ? (k == j ? 1.0 : kd(k, j) / d[k]) : 0.0;
        s += dl * du;
      }
      p(i, j) = s;
    }
  }
  util::Rng rng(13);
  const Vec x = rng.uniform_vector(n);
  Vec y;
  ssor.apply_pinv(x, y);
  const Vec px = p.multiply(y);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(px[i], x[i], 1e-9);
}

// ---- CG invariants -------------------------------------------------------------

TEST(CgInvariant, ANormErrorDecreasesMonotonically) {
  // CG minimizes the A-norm of the error over Krylov spaces, so
  // ||u_k - u*||_A must decrease strictly every iteration.
  const fem::PlateMesh mesh(6, 6);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  const Vec exact = la::solve_cholesky(sys.stiffness.to_dense(), sys.load);

  core::PcgOptions opt;
  opt.tolerance = 1e-12;
  opt.stop_rule = core::StopRule::kResidual2;
  double prev = 1e300;
  for (int k = 1; k <= 12; ++k) {
    core::PcgOptions capped = opt;
    capped.max_iterations = k;
    const auto res = core::cg_solve(sys.stiffness, sys.load, capped);
    Vec err;
    la::sub(res.solution, exact, err);
    Vec kerr;
    sys.stiffness.multiply(err, kerr);
    const double anorm = std::sqrt(std::max(0.0, la::dot(err, kerr)));
    EXPECT_LT(anorm, prev) << "k=" << k;
    prev = anorm;
  }
}

TEST(CgInvariant, PreconditionedErrorAlsoMonotoneInANorm) {
  const fem::PlateMesh mesh(6, 6);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  const auto cs = color::make_colored_system(sys.stiffness,
                                             color::six_color_classes(mesh));
  const Vec f = cs.permute(sys.load);
  const Vec exact = la::solve_cholesky(cs.matrix.to_dense(), f);
  const core::MulticolorMStepSsor prec(
      cs, core::least_squares_alphas(3, core::ssor_interval()));

  double prev = 1e300;
  for (int k = 1; k <= 8; ++k) {
    core::PcgOptions capped;
    capped.tolerance = 1e-14;
    capped.max_iterations = k;
    const auto res = core::pcg_solve(cs.matrix, f, prec, capped);
    Vec err;
    la::sub(res.solution, exact, err);
    Vec kerr;
    cs.matrix.multiply(err, kerr);
    const double anorm = std::sqrt(std::max(0.0, la::dot(err, kerr)));
    EXPECT_LT(anorm, prev) << "k=" << k;
    prev = anorm;
  }
}

TEST(CgInvariant, SearchDirectionsAreAOrthogonal) {
  // Reconstruct two consecutive directions and verify (p_k, K p_{k+1}) ~ 0
  // by running PCG and checking the residual orthogonality instead:
  // (r_k, z_j) = 0 for j < k.  We proxy via: solution after k steps has
  // residual orthogonal to the first preconditioned residual.
  const fem::PlateMesh mesh(5, 5);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  core::PcgOptions opt;
  opt.tolerance = 1e-14;
  opt.max_iterations = 6;
  const auto res = core::cg_solve(sys.stiffness, sys.load, opt);
  Vec r;
  sys.stiffness.residual(sys.load, res.solution, r);
  // r_6 orthogonal to r_0 = f (u0 = 0) up to rounding scaled by norms.
  const double cosine =
      la::dot(r, sys.load) / (la::nrm2(r) * la::nrm2(sys.load));
  EXPECT_LT(std::abs(cosine), 1e-7);
}

}  // namespace
}  // namespace mstep::split
