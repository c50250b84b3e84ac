// Tests for polynomials, Chebyshev machinery, quadrature, and eigenvalue
// estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "fem/poisson.hpp"
#include "la/eigen.hpp"
#include "la/polynomial.hpp"
#include "la/quadrature.hpp"
#include "util/rng.hpp"

namespace mstep::la {
namespace {

// ---- polynomials -------------------------------------------------------------

TEST(Polynomial, HornerEvaluation) {
  const Polynomial p({1.0, -2.0, 3.0});  // 1 - 2x + 3x^2
  EXPECT_DOUBLE_EQ(p(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p(1.0), 2.0);
  EXPECT_DOUBLE_EQ(p(2.0), 9.0);
}

TEST(Polynomial, ArithmeticMatchesPointwise) {
  const Polynomial p({1.0, 2.0});
  const Polynomial q({0.0, -1.0, 4.0});
  util::Rng rng(1);
  for (int t = 0; t < 20; ++t) {
    const double x = rng.uniform(-2.0, 2.0);
    EXPECT_NEAR((p + q)(x), p(x) + q(x), 1e-12);
    EXPECT_NEAR((p - q)(x), p(x) - q(x), 1e-12);
    EXPECT_NEAR((p * q)(x), p(x) * q(x), 1e-12);
    EXPECT_NEAR((p * 3.5)(x), 3.5 * p(x), 1e-12);
  }
}

TEST(Polynomial, ComposeLinear) {
  const Polynomial p({0.0, 0.0, 1.0});  // x^2
  const Polynomial q = p.compose_linear(1.0, -2.0);  // (1 - 2x)^2
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q(0.5), 0.0);
  EXPECT_DOUBLE_EQ(q(1.0), 1.0);
}

TEST(Polynomial, Derivative) {
  const Polynomial p({5.0, 1.0, 3.0});  // 5 + x + 3x^2
  const Polynomial d = p.derivative();
  EXPECT_DOUBLE_EQ(d(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d(2.0), 13.0);
}

TEST(Polynomial, DivideByX) {
  const Polynomial p({0.0, 2.0, -3.0});
  const Polynomial q = p.divide_by_x();
  EXPECT_DOUBLE_EQ(q(1.5), 2.0 - 4.5);
  EXPECT_THROW((void)Polynomial({1.0, 1.0}).divide_by_x(), std::invalid_argument);
}

TEST(Polynomial, OneMinusXBasisRoundTrip) {
  const Polynomial p({0.3, -1.2, 0.0, 2.5});
  const auto alphas = to_one_minus_x_basis(p);
  const Polynomial back = from_one_minus_x_basis(alphas);
  util::Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    const double x = rng.uniform(-1.0, 2.0);
    EXPECT_NEAR(p(x), back(x), 1e-12);
  }
}

TEST(Chebyshev, KnownPolynomials) {
  // T2 = 2x^2 - 1, T3 = 4x^3 - 3x.
  const auto t2 = chebyshev_t(2).coeffs();
  EXPECT_DOUBLE_EQ(t2[0], -1.0);
  EXPECT_DOUBLE_EQ(t2[2], 2.0);
  const auto t3 = chebyshev_t(3).coeffs();
  EXPECT_DOUBLE_EQ(t3[1], -3.0);
  EXPECT_DOUBLE_EQ(t3[3], 4.0);
}

TEST(Chebyshev, ValueMatchesPolynomialInside) {
  for (int n : {0, 1, 2, 5, 8}) {
    const Polynomial tn = chebyshev_t(n);
    for (double x : {-0.9, -0.3, 0.0, 0.5, 1.0}) {
      EXPECT_NEAR(tn(x), chebyshev_t_value(n, x), 1e-10) << n << " " << x;
    }
  }
}

TEST(Chebyshev, ValueMatchesPolynomialOutside) {
  for (int n : {1, 2, 4, 6}) {
    const Polynomial tn = chebyshev_t(n);
    for (double x : {1.2, 2.0, -1.5}) {
      EXPECT_NEAR(tn(x) / chebyshev_t_value(n, x), 1.0, 1e-9) << n << " " << x;
    }
  }
}

TEST(Chebyshev, Equioscillation) {
  // |T_n| <= 1 on [-1, 1], reaching 1 at n+1 points.
  const Polynomial t6 = chebyshev_t(6);
  for (int i = 0; i <= 100; ++i) {
    const double x = -1.0 + 2.0 * i / 100.0;
    EXPECT_LE(std::abs(t6(x)), 1.0 + 1e-10);
  }
  EXPECT_NEAR(std::abs(t6(1.0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(t6(std::cos(M_PI / 6.0))), 1.0, 1e-10);
}

// ---- quadrature ----------------------------------------------------------------

TEST(Quadrature, WeightsSumToIntervalLength) {
  for (int n : {1, 2, 5, 16, 32}) {
    const QuadratureRule rule = gauss_legendre(n);
    double s = 0.0;
    for (double w : rule.weights) s += w;
    EXPECT_NEAR(s, 2.0, 1e-12) << "n=" << n;
  }
}

TEST(Quadrature, ExactForPolynomialsOfDegree2nMinus1) {
  // n-point Gauss integrates x^k exactly for k <= 2n-1.
  for (int n : {2, 3, 5}) {
    for (int k = 0; k <= 2 * n - 1; ++k) {
      const double result =
          integrate([&](double x) { return std::pow(x, k); }, 0.0, 1.0, n);
      EXPECT_NEAR(result, 1.0 / (k + 1), 1e-12) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Quadrature, NotExactBeyondDegreeBound) {
  // 2-point Gauss cannot integrate x^4 exactly — guards the degree logic.
  const double r =
      integrate([](double x) { return x * x * x * x; }, -1.0, 1.0, 2);
  EXPECT_GT(std::abs(r - 0.4), 1e-3);
}

TEST(Quadrature, SmoothFunction) {
  const double r = integrate([](double x) { return std::sin(x); }, 0.0, M_PI, 24);
  EXPECT_NEAR(r, 2.0, 1e-12);
}

TEST(Quadrature, NodesSymmetricAndSorted) {
  const QuadratureRule rule = gauss_legendre(7);
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(rule.nodes[i], -rule.nodes[6 - i], 1e-13);
    if (i > 0) {
      EXPECT_GT(rule.nodes[i], rule.nodes[i - 1]);
    }
  }
}

// ---- tridiagonal + Lanczos + power method --------------------------------------

TEST(Tridiag, KnownToeplitzEigenvalues) {
  // diag 2, off -1, size n: eigenvalues 2 - 2cos(k pi/(n+1)).
  const int n = 12;
  const std::vector<double> a(n, 2.0);
  const std::vector<double> b(n - 1, -1.0);
  const auto ev = tridiagonal_eigenvalues(a, b);
  for (int k = 1; k <= n; ++k) {
    EXPECT_NEAR(ev[k - 1], 2.0 - 2.0 * std::cos(k * M_PI / (n + 1)), 1e-10);
  }
}

TEST(Tridiag, SingleElement) {
  const auto ev = tridiagonal_eigenvalues({4.2}, {});
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_NEAR(ev[0], 4.2, 1e-12);
}

TEST(Power, FindsDominantEigenvalueOfPoisson) {
  const fem::PoissonProblem prob(10, 10);
  const auto a = prob.matrix();
  const LinOp op = [&](const Vec& x, Vec& y) { a.multiply(x, y); };
  const auto res = power_method(op, a.rows());
  EXPECT_TRUE(res.converged);
  const double h = 1.0 / 11.0;
  const double expect = (2.0 / (h * h)) * (2.0 + 2.0 * std::cos(M_PI * h));
  EXPECT_NEAR(res.eigenvalue, expect, 1e-4 * expect);
}

TEST(Lanczos, ExtremesOfPoissonMatchTheory) {
  const fem::PoissonProblem prob(12, 12);
  const auto a = prob.matrix();
  const LinOp op = [&](const Vec& x, Vec& y) { a.multiply(x, y); };
  const auto est = lanczos_extreme(op, a.rows(), 100);
  const double h = 1.0 / 13.0;
  const double lmin = (2.0 / (h * h)) * (2.0 - 2.0 * std::cos(M_PI * h));
  const double lmax = (2.0 / (h * h)) * (2.0 + 2.0 * std::cos(M_PI * h));
  EXPECT_NEAR(est.lambda_max, lmax, 1e-3 * lmax);
  EXPECT_NEAR(est.lambda_min, lmin, 0.05 * lmin);
}

TEST(Lanczos, PreconditionedRecoversJacobiScaledSpectrum) {
  // With M = D, the preconditioned Lanczos sees D^{-1}A; for the Poisson
  // matrix D = (2cx+2cy) I, so the spectrum is just scaled.
  const fem::PoissonProblem prob(9, 9);
  const auto a = prob.matrix();
  const Vec d = a.diagonal();
  const LinOp a_op = [&](const Vec& x, Vec& y) { a.multiply(x, y); };
  const LinOp minv = [&](const Vec& x, Vec& y) {
    y.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] / d[i];
  };
  const auto pre = lanczos_extreme_preconditioned(a_op, minv, a.rows(), 80);
  const auto plain = lanczos_extreme(a_op, a.rows(), 80);
  EXPECT_NEAR(pre.lambda_max, plain.lambda_max / d[0], 1e-3 * pre.lambda_max);
  EXPECT_NEAR(pre.lambda_min, plain.lambda_min / d[0], 0.05 * pre.lambda_min);
}

TEST(Gershgorin, EnclosesSpectrum) {
  const fem::PoissonProblem prob(6, 6);
  const auto a = prob.matrix();
  const auto [lo, hi] = gershgorin_interval(a);
  const LinOp op = [&](const Vec& x, Vec& y) { a.multiply(x, y); };
  const auto est = lanczos_extreme(op, a.rows(), 60);
  EXPECT_LE(lo, est.lambda_min + 1e-9);
  EXPECT_GE(hi, est.lambda_max - 1e-9);
}

}  // namespace
}  // namespace mstep::la
