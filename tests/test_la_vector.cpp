// Unit tests for the BLAS-1 kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "la/vector.hpp"
#include "util/rng.hpp"

namespace mstep::la {
namespace {

TEST(Blas1, AxpyAddsScaledVector) {
  Vec x = {1.0, 2.0, 3.0};
  Vec y = {10.0, 20.0, 30.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(Blas1, AxpyZeroCoefficientIsIdentity) {
  Vec x = {5.0, -4.0};
  Vec y = {1.0, 2.0};
  axpy(0.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(Blas1, XpayFormsCgDirectionUpdate) {
  Vec z = {1.0, 1.0};
  Vec p = {2.0, 4.0};
  xpay(z, 0.5, p);  // p = z + 0.5 p
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 3.0);
}

TEST(Blas1, DotMatchesHandComputation) {
  Vec x = {1.0, 2.0, -3.0};
  Vec y = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 - 18.0);
}

TEST(Blas1, DotOfEmptyVectorsIsZero) {
  EXPECT_DOUBLE_EQ(dot(Vec{}, Vec{}), 0.0);
}

TEST(Blas1, Nrm2OfUnitAxis) {
  Vec x = {0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(nrm2(x), 1.0);
}

TEST(Blas1, Nrm2Pythagorean) {
  Vec x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
}

TEST(Blas1, NormInfPicksLargestMagnitude) {
  Vec x = {1.0, -7.5, 3.0};
  EXPECT_DOUBLE_EQ(norm_inf(x), 7.5);
}

TEST(Blas1, DiffNormInfAvoidsFormingDifference) {
  Vec x = {1.0, 2.0, 3.0};
  Vec y = {1.5, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(diff_norm_inf(x, y), 2.0);
  Vec d;
  sub(x, y, d);
  EXPECT_DOUBLE_EQ(diff_norm_inf(x, y), norm_inf(d));
}

TEST(Blas1, ScaleAndFill) {
  Vec x = {1.0, -2.0};
  scale(-3.0, x);
  EXPECT_DOUBLE_EQ(x[0], -3.0);
  EXPECT_DOUBLE_EQ(x[1], 6.0);
  fill(x, 0.25);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 0.25);
}

TEST(Blas1, HadamardIsElementwiseProduct) {
  Vec x = {2.0, 3.0};
  Vec y = {5.0, -1.0};
  Vec w;
  hadamard(x, y, w);
  EXPECT_DOUBLE_EQ(w[0], 10.0);
  EXPECT_DOUBLE_EQ(w[1], -3.0);
}

TEST(Blas1, DotSymmetryProperty) {
  util::Rng rng(3);
  const Vec x = rng.uniform_vector(100);
  const Vec y = rng.uniform_vector(100);
  EXPECT_DOUBLE_EQ(dot(x, y), dot(y, x));
}

TEST(Blas1, CauchySchwarzProperty) {
  util::Rng rng(4);
  const Vec x = rng.uniform_vector(257);
  const Vec y = rng.uniform_vector(257);
  EXPECT_LE(std::abs(dot(x, y)), nrm2(x) * nrm2(y) * (1 + 1e-14));
}

class Blas1Sizes : public ::testing::TestWithParam<int> {};

TEST_P(Blas1Sizes, AxpyThenSubtractRecoversOriginal) {
  const int n = GetParam();
  util::Rng rng(n);
  const Vec x = rng.uniform_vector(n);
  Vec y = rng.uniform_vector(n);
  const Vec y0 = y;
  axpy(2.5, x, y);
  axpy(-2.5, x, y);
  EXPECT_LT(diff_norm_inf(y, y0), 1e-12);
}

TEST_P(Blas1Sizes, NormInfBoundedByNrm2) {
  const int n = GetParam();
  util::Rng rng(n + 17);
  const Vec x = rng.uniform_vector(n);
  EXPECT_LE(norm_inf(x), nrm2(x) + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Blas1Sizes,
                         ::testing::Values(1, 2, 3, 10, 100, 1000, 4096));

}  // namespace
}  // namespace mstep::la
