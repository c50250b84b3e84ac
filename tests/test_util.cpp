// Tests for the utility layer: table formatting, CLI parsing, RNG,
// number formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/table.hpp"

namespace mstep::util {
namespace {

// ---- Table -------------------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "-2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-2"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_NO_THROW((void)t.to_string());
}

TEST(Table, TitleIsPrinted) {
  Table t({"h"});
  const std::string s = t.to_string("my title");
  EXPECT_EQ(s.rfind("my title", 0), 0u);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(Table::integer(42), "42");
  EXPECT_EQ(Table::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Table::ratio(1.916, 2), "1.92");
  EXPECT_EQ(Table::num(0.000123, 3), "0.000123");
}

TEST(Table, SeparatorAddsLine) {
  Table t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // header line + 3 content-boundaries + separator = 5 '+--' lines total.
  int hlines = 0;
  for (std::size_t pos = 0; (pos = s.find("+-", pos)) != std::string::npos;
       ++pos) {
    ++hlines;
  }
  EXPECT_EQ(hlines, 4);
}

// ---- format_double -----------------------------------------------------------

TEST(FormatDouble, IntegersWithTrailingZerosPrintPlain) {
  // Each round-trips first as a one- or two-digit exponent spelling
  // ("8e+01", "1.6e+02", "1e+02"); the plain integer is shorter.
  EXPECT_EQ(format_double(80.0), "80");
  EXPECT_EQ(format_double(160.0), "160");
  EXPECT_EQ(format_double(100.0), "100");
  EXPECT_EQ(format_double(-1200.0), "-1200");
}

TEST(FormatDouble, ExponentKeptWhereShorterOrOnly) {
  EXPECT_EQ(format_double(1e-6), "1e-06");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1e21), "1e+21");
  EXPECT_EQ(format_double(1e5), "1e+05");  // "100000" is longer
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_double(4.0), "4");
  EXPECT_EQ(format_double(0.0), "0");
}

TEST(FormatDouble, EverySpellingParsesBackExactly) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Values across magnitudes, half of them rounded to integers.
    const double scale = std::ldexp(1.0, static_cast<int>(i % 120) - 60);
    double v = rng.uniform(-1.0, 1.0) * scale;
    if (i % 2 == 0) v = std::round(v * 1000.0);
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

// ---- Cli ---------------------------------------------------------------------

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=1.5"};
  Cli cli(4, argv, {"alpha", "beta"});
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 1.5);
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv, {"x"});
  EXPECT_FALSE(cli.has("x"));
  EXPECT_EQ(cli.get("x", "d"), "d");
  EXPECT_EQ(cli.get_int("x", 7), 7);
}

TEST(Cli, BooleanFlagWithoutValue) {
  const char* argv[] = {"prog", "--quick"};
  Cli cli(2, argv, {"quick"});
  EXPECT_TRUE(cli.has("quick"));
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(Cli(3, argv, {"yep"}), std::invalid_argument);
}

TEST(Cli, RejectsNonFlagArgument) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Cli(2, argv, {"x"}), std::invalid_argument);
}

// ---- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, VectorHasRequestedLengthAndRange) {
  Rng rng(10);
  const auto v = rng.uniform_vector(257, 0.0, 1.0);
  EXPECT_EQ(v.size(), 257u);
  for (double x : v) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

}  // namespace
}  // namespace mstep::util
