// Matrix Market I/O: write -> read -> write byte identity (general and
// symmetric storage), symmetry expansion, every supported field/format,
// vector files, the bandedness probe, the committed fixtures, and the
// malformed-input diagnostics (positioned errors, never a crash — the
// ASan CI job runs these too).
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "io/matrix_market.hpp"
#include "la/dia_matrix.hpp"

namespace mstep::io {
namespace {

la::CsrMatrix tridiag(index_t n, double diag, double off) {
  la::CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, diag);
    if (i > 0) b.add(i, i - 1, off);
    if (i + 1 < n) b.add(i, i + 1, off);
  }
  return b.build();
}

void expect_same_matrix(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values(), b.values());
}

std::string write_to_string(const la::CsrMatrix& a,
                            const MmWriteOptions& options = {}) {
  std::ostringstream out;
  write_matrix_market(out, a, options);
  return out.str();
}

// ---- round trips ------------------------------------------------------------

TEST(MatrixMarket, GeneralCoordinateRoundTripIsByteIdentical) {
  // An unsymmetric matrix with values that stress the shortest
  // round-trip formatting (thirds, tiny, huge, negative zero exponents).
  la::CooBuilder b(4, 5);
  b.add(0, 0, 1.0 / 3.0);
  b.add(0, 4, -2.5e-17);
  b.add(1, 1, 12345678.901234567);
  b.add(2, 0, -1.0);
  b.add(2, 3, 7.0e300);
  b.add(3, 2, 0.1);
  const la::CsrMatrix a = b.build();

  const std::string once = write_to_string(a);
  std::istringstream in(once);
  const MmMatrix read_back = read_matrix_market(in, "roundtrip.mtx");
  EXPECT_EQ(read_back.header.format, MmFormat::kCoordinate);
  EXPECT_EQ(read_back.header.field, MmField::kReal);
  EXPECT_EQ(read_back.header.symmetry, MmSymmetry::kGeneral);
  expect_same_matrix(a, read_back.matrix);

  const std::string twice = write_to_string(read_back.matrix);
  EXPECT_EQ(once, twice);  // byte-identical
}

TEST(MatrixMarket, SymmetricCoordinateRoundTripIsByteIdentical) {
  const la::CsrMatrix a = tridiag(6, 2.0, -0.25);
  MmWriteOptions options;
  options.symmetry = MmSymmetry::kSymmetric;
  options.comment = "SPD tridiagonal fixture";

  const std::string once = write_to_string(a, options);
  // Only the lower triangle is stored: 6 diagonal + 5 off-diagonal.
  EXPECT_NE(once.find("6 6 11"), std::string::npos);

  std::istringstream in(once);
  const MmMatrix read_back = read_matrix_market(in, "sym.mtx");
  EXPECT_EQ(read_back.header.symmetry, MmSymmetry::kSymmetric);
  expect_same_matrix(a, read_back.matrix);  // expansion reproduces the full A

  const std::string twice = write_to_string(read_back.matrix, options);
  EXPECT_EQ(once, twice);
}

TEST(MatrixMarket, SkewSymmetricExpansionNegatesTheMirror) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 2\n"
      "2 1 5\n"
      "3 2 -1.5\n");
  const MmMatrix mm = read_matrix_market(in, "skew.mtx");
  EXPECT_EQ(mm.matrix.at(1, 0), 5.0);
  EXPECT_EQ(mm.matrix.at(0, 1), -5.0);
  EXPECT_EQ(mm.matrix.at(2, 1), -1.5);
  EXPECT_EQ(mm.matrix.at(1, 2), 1.5);
  EXPECT_EQ(mm.matrix.at(0, 0), 0.0);

  MmWriteOptions options;
  options.symmetry = MmSymmetry::kSkewSymmetric;
  const std::string once = write_to_string(mm.matrix, options);
  std::istringstream in2(once);
  expect_same_matrix(mm.matrix, read_matrix_market(in2, "skew.mtx").matrix);
}

TEST(MatrixMarket, PatternAndIntegerFieldsParse) {
  std::istringstream pattern(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 3\n"
      "1 1\n"
      "2 1\n"
      "3 3\n");
  const MmMatrix p = read_matrix_market(pattern, "pat.mtx");
  EXPECT_EQ(p.matrix.nnz(), 4);  // (2,1) mirrored
  EXPECT_EQ(p.matrix.at(0, 1), 1.0);

  std::istringstream integer(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 2\n"
      "1 1 -3\n"
      "2 2 7\n");
  const MmMatrix i = read_matrix_market(integer, "int.mtx");
  EXPECT_EQ(i.matrix.at(0, 0), -3.0);
  EXPECT_EQ(i.matrix.at(1, 1), 7.0);
}

TEST(MatrixMarket, ArrayFormatReadsColumnMajorAndRoundTrips) {
  std::istringstream in(
      "%%MatrixMarket matrix array real general\n"
      "2 3 \n"
      "1\n3\n0\n4\n5\n6.5\n");
  const MmMatrix mm = read_matrix_market(in, "arr.mtx");
  EXPECT_EQ(mm.matrix.at(0, 0), 1.0);
  EXPECT_EQ(mm.matrix.at(1, 0), 3.0);
  EXPECT_EQ(mm.matrix.at(0, 1), 0.0);  // explicit zero is not stored
  EXPECT_EQ(mm.matrix.at(1, 2), 6.5);

  MmWriteOptions options;
  options.format = MmFormat::kArray;
  const std::string once = write_to_string(mm.matrix, options);
  std::istringstream in2(once);
  const MmMatrix mm2 = read_matrix_market(in2, "arr.mtx");
  expect_same_matrix(mm.matrix, mm2.matrix);
  EXPECT_EQ(once, write_to_string(mm2.matrix, options));
}

TEST(MatrixMarket, VectorRoundTrip) {
  const Vec v = {1.5, -2.0, 1.0 / 7.0, 0.0, 3e8};
  std::ostringstream out;
  write_vector(out, v, "rhs fixture");
  std::istringstream in(out.str());
  EXPECT_EQ(read_vector(in, "v.mtx"), v);

  // Coordinate-format vectors read too, with absent entries zero.
  std::istringstream sparse(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 1 2\n"
      "1 1 9\n"
      "4 1 -1\n");
  const Vec w = read_vector(sparse, "w.mtx");
  EXPECT_EQ(w, (Vec{9.0, 0.0, 0.0, -1.0}));
}

// The structure facts the driver report carries (bandwidth, distinct
// diagonals) survive a write/read round trip.
TEST(MatrixMarket, BandednessFactsSurviveTheRoundTrip) {
  std::istringstream banded(write_to_string(tridiag(64, 4.0, -1.0)));
  const la::CsrMatrix band = read_matrix_market(banded, "band.mtx").matrix;
  EXPECT_EQ(band.bandwidth(), 1);
  EXPECT_EQ(band.num_nonzero_diagonals(), 3);

  // An arrow matrix has one diagonal per offset: 2n - 1 of them.
  la::CooBuilder b(64, 64);
  for (index_t i = 0; i < 64; ++i) {
    b.add(i, i, 4.0);
    if (i > 0) {
      b.add(0, i, -1.0);
      b.add(i, 0, -1.0);
    }
  }
  std::istringstream arrow(write_to_string(b.build()));
  const la::CsrMatrix read = read_matrix_market(arrow, "arrow.mtx").matrix;
  EXPECT_EQ(read.num_nonzero_diagonals(), 127);
}

// ---- fixtures ---------------------------------------------------------------

TEST(MatrixMarket, CommittedFixturesLoad) {
  const std::string dir = MSTEP_TEST_DATA_DIR;
  const MmMatrix general = read_matrix_market(dir + "/spd_tridiag_general.mtx");
  EXPECT_EQ(general.matrix.rows(), 6);
  EXPECT_EQ(general.matrix.nnz(), 16);
  EXPECT_EQ(general.matrix.symmetry_error(), 0.0);
  EXPECT_EQ(general.matrix.num_nonzero_diagonals(), 3);

  const MmMatrix sym = read_matrix_market(dir + "/spd_band_symmetric.mtx");
  EXPECT_EQ(sym.header.symmetry, MmSymmetry::kSymmetric);
  EXPECT_EQ(sym.matrix.rows(), 8);
  EXPECT_EQ(sym.matrix.nnz(), 34);  // 21 stored + 13 mirrored
  EXPECT_EQ(sym.matrix.symmetry_error(), 0.0);
  EXPECT_EQ(sym.matrix.bandwidth(), 2);
}

// ---- diagnostics ------------------------------------------------------------

void expect_error(const std::string& text, const std::string& fragment,
                  std::size_t line) {
  std::istringstream in(text);
  try {
    (void)read_matrix_market(in, "bad.mtx");
    FAIL() << "expected MatrixMarketError containing '" << fragment << "'";
  } catch (const MatrixMarketError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find("bad.mtx:"), std::string::npos);
  }
}

TEST(MatrixMarket, MalformedHeadersAreDiagnosed) {
  expect_error("", "missing banner", 1);
  expect_error("%%MatrixMarket matrix\n", "banner wants", 1);
  expect_error("MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n",
               "banner must start", 1);
  expect_error("%%MatrixMarket vector coordinate real general\n",
               "unsupported object", 1);
  expect_error("%%MatrixMarket matrix triplet real general\n",
               "unknown format", 1);
  expect_error("%%MatrixMarket matrix coordinate complex general\n",
               "complex matrices are not supported", 1);
  expect_error("%%MatrixMarket matrix coordinate real hermitian\n",
               "hermitian matrices are not supported", 1);
  expect_error("%%MatrixMarket matrix array pattern general\n",
               "array format cannot have a pattern field", 1);
  expect_error("%%MatrixMarket matrix coordinate real general\n",
               "missing size line", 2);
  expect_error("%%MatrixMarket matrix coordinate real general\n2 2\n",
               "size line wants 3 integers", 2);
  expect_error(
      "%%MatrixMarket matrix coordinate real symmetric\n% c\n2 3 1\n",
      "symmetric matrix must be square", 3);
}

TEST(MatrixMarket, BadEntriesAreDiagnosedWithPosition) {
  const std::string head = "%%MatrixMarket matrix coordinate real general\n";
  expect_error(head + "2 2 2\n1 1 1.0\n", "expected 2 entries, got 1", 4);
  expect_error(head + "2 2 1\n1 1 1.0\n2 2 1.0\n", "extra entry", 4);
  expect_error(head + "2 2 1\n1 x 1.0\n", "expected integer column index", 3);
  expect_error(head + "2 2 1\n1 1 fish\n", "expected numeric value", 3);
  expect_error(head + "2 2 1\n3 1 1.0\n", "row index 3 outside [1, 2]", 3);
  expect_error(head + "2 2 1\n1 0 1.0\n", "column index 0 outside [1, 2]", 3);
  expect_error(head + "2 2 2\n1 1 1.0\n1 1 2.0\n", "duplicate entry (1, 1)",
               4);

  // Positioned column: "1 x 1.0" -> token starts at column 3.
  std::istringstream in(head + "2 2 1\n1 x 1.0\n");
  try {
    (void)read_matrix_market(in, "bad.mtx");
    FAIL();
  } catch (const MatrixMarketError& e) {
    EXPECT_EQ(e.column(), 3u);
  }
}

TEST(MatrixMarket, SubnormalValuesRoundTripAndOverflowingValuesAreDiagnosed) {
  // 1e-320 is a subnormal: std::stod would throw out_of_range on it, but
  // it is a perfectly valid Matrix Market value.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1e-320\n"
      "2 2 1\n");
  const MmMatrix mm = read_matrix_market(in, "sub.mtx");
  EXPECT_EQ(mm.matrix.at(0, 0), 1e-320);
  const std::string once = write_to_string(mm.matrix);
  std::istringstream in2(once);
  const MmMatrix mm2 = read_matrix_market(in2, "sub.mtx");
  expect_same_matrix(mm.matrix, mm2.matrix);
  EXPECT_EQ(once, write_to_string(mm2.matrix));  // byte-identical
  // A value beyond the double range is a diagnostic, not infinity.
  expect_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e400\n",
      "overflows the double range", 3);
}

TEST(MatrixMarket, NonFiniteAndHexValueTokensAreDiagnosed) {
  const std::string head = "%%MatrixMarket matrix coordinate real general\n";
  expect_error(head + "2 2 1\n1 1 inf\n", "is not finite", 3);
  expect_error(head + "2 2 1\n1 1 nan\n", "is not finite", 3);
  expect_error(head + "2 2 1\n1 1 -Inf\n", "is not finite", 3);
  expect_error(head + "2 2 1\n1 1 0x10\n", "expected numeric value", 3);
}

TEST(MatrixMarket, WriterValidatesBeforeEmittingAnything) {
  // A failing write must not leave partial output behind.
  la::CooBuilder b(2, 2);
  b.add(0, 0, 1.5);  // not integral
  std::ostringstream out;
  MmWriteOptions options;
  options.field = MmField::kInteger;
  EXPECT_THROW(write_matrix_market(out, b.build(), options),
               std::invalid_argument);
  EXPECT_EQ(out.str(), "");

  std::ostringstream out2;
  MmWriteOptions array_pattern;
  array_pattern.format = MmFormat::kArray;
  array_pattern.field = MmField::kPattern;
  EXPECT_THROW(write_matrix_market(out2, b.build(), array_pattern),
               std::invalid_argument);
  EXPECT_EQ(out2.str(), "");

  // Non-finite values would produce tokens the reader rejects.
  la::CooBuilder nf(2, 2);
  nf.add(0, 0, std::numeric_limits<double>::quiet_NaN());
  std::ostringstream out3;
  EXPECT_THROW(write_matrix_market(out3, nf.build(), MmWriteOptions{}),
               std::invalid_argument);
  EXPECT_EQ(out3.str(), "");
  std::ostringstream out4;
  EXPECT_THROW(
      write_vector(out4, Vec{std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  EXPECT_EQ(out4.str(), "");
}

TEST(MatrixMarket, WriterRejectsMultiLineComments) {
  MmWriteOptions options;
  options.comment = "line1\nline2";
  EXPECT_THROW(write_to_string(tridiag(3, 2.0, -1.0), options),
               std::invalid_argument);
  std::ostringstream out;
  EXPECT_THROW(write_vector(out, Vec{1.0}, "a\nb"), std::invalid_argument);
}

TEST(MatrixMarket, OverflowingIndicesAreDiagnosedNotCrashing) {
  const std::string head = "%%MatrixMarket matrix coordinate real general\n";
  // Dimension larger than the 32-bit index type.
  expect_error(head + "3000000000 1 1\n1 1 1.0\n",
               "does not fit the 32-bit index type", 2);
  // Entry index overflowing long long entirely.
  expect_error(head + "2 2 1\n99999999999999999999 1 1.0\n", "overflows", 3);
  // In-range dimensions, out-of-range entry.
  expect_error(head + "2 2 1\n2000000000 1 1.0\n",
               "row index 2000000000 outside [1, 2]", 3);
}

TEST(MatrixMarket, HugeDeclaredEntryCountIsDiagnosedNotAllocated) {
  // nnz far beyond rows*cols must fail at the size line, before any
  // entry staging is reserved.
  expect_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 2000000000\n",
      "exceeds rows*cols = 4", 2);
}

TEST(MatrixMarket, FailingPathWriteDoesNotTruncateExistingFile) {
  const std::string path = ::testing::TempDir() + "mm_preserve_test.mtx";
  write_matrix_market(path, tridiag(3, 2.0, -1.0));
  const MmMatrix before = read_matrix_market(path);

  la::CooBuilder b(2, 2);  // not symmetric: the symmetric write must throw
  b.add(0, 1, 2.0);
  MmWriteOptions options;
  options.symmetry = MmSymmetry::kSymmetric;
  EXPECT_THROW(write_matrix_market(path, b.build(), options),
               std::invalid_argument);
  expect_same_matrix(before.matrix, read_matrix_market(path).matrix);
  std::remove(path.c_str());
}

TEST(MatrixMarket, SymmetryStorageViolationsAreDiagnosed) {
  expect_error(
      "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n",
      "lies above the diagonal", 3);
  expect_error(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 1.0\n",
      "no diagonal entries", 3);
}

TEST(MatrixMarket, WriterRejectsNonSymmetricMatrixForSymmetricStorage) {
  la::CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);
  MmWriteOptions options;
  options.symmetry = MmSymmetry::kSymmetric;
  EXPECT_THROW(write_to_string(b.build(), options), std::invalid_argument);

  // Vector files must be vectors.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n2 2 0\n");
  EXPECT_THROW((void)read_vector(in, "notvec.mtx"), MatrixMarketError);

  EXPECT_THROW((void)read_matrix_market("/nonexistent/path.mtx"),
               MatrixMarketError);
}

}  // namespace
}  // namespace mstep::io
