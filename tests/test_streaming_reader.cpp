// The streaming two-pass Matrix Market reader: byte-source plumbing
// (file / buffer / gzip with magic-byte auto-detection), identity between
// the file path, the buffer path, and the gzip path on a generated
// large-ish matrix, the gzip failure diagnostics (truncated stream,
// mid-stream corruption), and `format=auto` routing through the
// bandedness probe on real catalog problems.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/byte_source.hpp"
#include "io/matrix_market.hpp"
#include "problems/driver.hpp"
#include "solver/solver.hpp"

namespace mstep::io {
namespace {

/// A banded SPD matrix big enough that the reader's buffer refills many
/// times (the 200-row pentadiagonal has ~1k entries over ~1k lines).
la::CsrMatrix banded(index_t n) {
  la::CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, 8.0 + 0.001 * static_cast<double>(i));
    if (i >= 1) b.add(i, i - 1, -1.5);
    if (i + 1 < n) b.add(i, i + 1, -1.5);
    if (i >= 2) b.add(i, i - 2, -0.25);
    if (i + 2 < n) b.add(i, i + 2, -0.25);
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- sources agree ----------------------------------------------------------

TEST(StreamingReader, FileBufferAndStreamPathsReadIdentically) {
  const la::CsrMatrix a = banded(200);
  MmWriteOptions options;
  options.symmetry = MmSymmetry::kSymmetric;
  const std::string text = write_to_string(a, options);
  const std::string path = ::testing::TempDir() + "stream_band.mtx";
  write_matrix_market(path, a, options);

  const MmMatrix from_file = read_matrix_market(path);
  BufferByteSource buffer(text, "buf.mtx");
  const MmMatrix from_buffer = read_matrix_market(buffer);
  std::istringstream in(text);
  const MmMatrix from_stream = read_matrix_market(in, "stream.mtx");

  expect_same_matrix(a, from_file.matrix);
  expect_same_matrix(from_file.matrix, from_buffer.matrix);
  expect_same_matrix(from_file.matrix, from_stream.matrix);
  EXPECT_TRUE(from_file.dia_friendly);
  EXPECT_EQ(from_file.header.symmetry, MmSymmetry::kSymmetric);

  // The streaming reader preserves the writer's byte-identity guarantee.
  EXPECT_EQ(text, write_to_string(from_file.matrix, options));
  std::remove(path.c_str());
}

TEST(StreamingReader, CommittedFixturesMatchTheBufferPath) {
  // The committed fixtures were generated with the pre-streaming reader;
  // the streaming file path must read them to the same CsrMatrix as the
  // in-memory path reads their bytes.
  const std::string dir = MSTEP_TEST_DATA_DIR;
  for (const char* name :
       {"/spd_tridiag_general.mtx", "/spd_band_symmetric.mtx"}) {
    const std::string path = dir + name;
    const MmMatrix from_file = read_matrix_market(path);
    BufferByteSource buffer(slurp(path), path);
    const MmMatrix from_buffer = read_matrix_market(buffer);
    expect_same_matrix(from_file.matrix, from_buffer.matrix);
    EXPECT_EQ(from_file.dia_friendly, from_buffer.dia_friendly);
  }
}

TEST(StreamingReader, CoordinateDuplicateAndEofDiagnosticsSurviveTwoPass) {
  // Diagnostics that depend on cross-pass bookkeeping (the duplicate is
  // detected after scattering, its line recovered by a rescan).
  const std::string head = "%%MatrixMarket matrix coordinate real general\n";
  std::istringstream dup(head + "3 3 3\n1 1 1.0\n2 2 2.0\n1 1 9.0\n");
  try {
    (void)read_matrix_market(dup, "dup.mtx");
    FAIL() << "expected a duplicate diagnostic";
  } catch (const MatrixMarketError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate entry (1, 1)"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 5u) << e.what();  // the second occurrence
  }

  // Symmetric storage: the mirror of a duplicated stored entry must be
  // reported with the STORED (lower triangle) coordinates.
  std::istringstream symdup(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n3 1 1.0\n2 2 2.0\n3 1 4.0\n");
  try {
    (void)read_matrix_market(symdup, "symdup.mtx");
    FAIL() << "expected a duplicate diagnostic";
  } catch (const MatrixMarketError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate entry (3, 1)"),
              std::string::npos)
        << e.what();
  }
}

// ---- gzip -------------------------------------------------------------------

TEST(StreamingReader, GzipTwinReadsIdenticalToPlainFile) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const la::CsrMatrix a = banded(200);
  const std::string plain = ::testing::TempDir() + "twin.mtx";
  const std::string gz = ::testing::TempDir() + "twin.mtx.gz";
  write_matrix_market(plain, a);
  write_matrix_market(gz, a);  // ".gz" suffix compresses

  // The .gz twin is a genuinely compressed file, not a renamed copy...
  const std::string gz_bytes = slurp(gz);
  ASSERT_GE(gz_bytes.size(), 2u);
  EXPECT_TRUE(looks_gzip(gz_bytes.data(), gz_bytes.size()));
  EXPECT_LT(gz_bytes.size(), slurp(plain).size());

  // ...and both paths produce bit-identical CSR arrays.
  const MmMatrix from_plain = read_matrix_market(plain);
  const MmMatrix from_gz = read_matrix_market(gz);
  expect_same_matrix(a, from_plain.matrix);
  expect_same_matrix(from_plain.matrix, from_gz.matrix);
  EXPECT_EQ(from_plain.dia_friendly, from_gz.dia_friendly);

  // Vectors round-trip through .gz the same way.
  Vec v(64);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  const std::string vgz = ::testing::TempDir() + "vec.mtx.gz";
  write_vector(vgz, v);
  EXPECT_EQ(read_vector(vgz), v);

  std::remove(plain.c_str());
  std::remove(gz.c_str());
  std::remove(vgz.c_str());
}

TEST(StreamingReader, GzipBytesAutoDetectInMemoryToo) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const la::CsrMatrix a = banded(32);
  const std::string compressed = gzip_compress(write_to_string(a));
  std::istringstream in(compressed);
  const MmMatrix mm = read_matrix_market(in, "mem.mtx.gz");
  expect_same_matrix(a, mm.matrix);
}

TEST(StreamingReader, ConcatenatedGzipMembersDecompressAsOneStream) {
  // RFC 1952: "cat a.gz b.gz" is a valid gzip file whose content is the
  // concatenation — bgzip and chunked uploaders produce these.
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const la::CsrMatrix a = banded(64);
  const std::string text = write_to_string(a);
  const std::string half1 = text.substr(0, text.size() / 2);
  const std::string half2 = text.substr(text.size() / 2);
  std::istringstream in(gzip_compress(half1) + gzip_compress(half2));
  const MmMatrix mm = read_matrix_market(in, "members.mtx.gz");
  expect_same_matrix(a, mm.matrix);

  // Non-gzip trailing bytes after the last member are still corrupt.
  std::istringstream bad(gzip_compress(text) + "trailing junk");
  EXPECT_THROW((void)read_matrix_market(bad, "junk.mtx.gz"),
               MatrixMarketError);
}

TEST(StreamingReader, IstreamOverloadReadsFromTheCurrentPosition) {
  // Historical contract of read_matrix_market(std::istream&): parsing
  // starts wherever the caller left the stream, and the two-pass rewind
  // returns THERE, not to byte 0.
  const la::CsrMatrix a = banded(16);
  std::istringstream in("container-header line\n" + write_to_string(a));
  std::string skipped;
  std::getline(in, skipped);
  const MmMatrix mm = read_matrix_market(in, "offset.mtx");
  expect_same_matrix(a, mm.matrix);
}

TEST(StreamingReader, TruncatedGzipIsDiagnosedNotCrashing) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const la::CsrMatrix a = banded(200);
  const std::string gz = ::testing::TempDir() + "trunc.mtx.gz";
  write_matrix_market(gz, a);
  const std::string bytes = slurp(gz);
  spit(gz, bytes.substr(0, bytes.size() / 2));  // cut the member short

  try {
    (void)read_matrix_market(gz);
    FAIL() << "expected a truncated-gzip diagnostic";
  } catch (const MatrixMarketError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated gzip stream"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("trunc.mtx.gz"), std::string::npos)
        << e.what();
  }
  std::remove(gz.c_str());
}

TEST(StreamingReader, CorruptGzipIsDiagnosedNotCrashing) {
  if (!gzip_supported()) GTEST_SKIP() << "built without zlib";
  const la::CsrMatrix a = banded(200);
  const std::string gz = ::testing::TempDir() + "corrupt.mtx.gz";
  write_matrix_market(gz, a);
  std::string bytes = slurp(gz);
  ASSERT_GT(bytes.size(), 64u);
  // Flip bits in the middle of the deflate stream (past the 10-byte gzip
  // header): either inflate fails mid-stream or the trailing CRC check
  // does — both must surface as a corrupt-stream diagnostic.
  for (std::size_t k = bytes.size() / 2; k < bytes.size() / 2 + 8; ++k) {
    bytes[k] = static_cast<char>(~bytes[k]);
  }
  spit(gz, bytes);

  try {
    (void)read_matrix_market(gz);
    FAIL() << "expected a corrupt-gzip diagnostic";
  } catch (const MatrixMarketError& e) {
    EXPECT_NE(std::string(e.what()).find("gzip stream"), std::string::npos)
        << e.what();
  }
  std::remove(gz.c_str());
}

// ---- format=auto ------------------------------------------------------------

TEST(StreamingReader, FormatAutoRunsOnTheOneStorage) {
  // `format` is a parse alias: a narrow-band randspd, a wide band that
  // scatters into hundreds of diagonals and a four-colour stencil all run
  // their outer products on the one run storage, and the JSON report says
  // so for the CI gate to check.
  solver::SolverConfig config;
  config.steps = 2;
  config.format = solver::MatrixFormat::kAuto;

  const auto run = [&](const std::string& spec) {
    problems::DriverInput input;
    input.problem = spec;
    return problems::run(input, config);
  };

  for (const char* spec :
       {"randspd:n=1000", "randspd:n=500:band=64", "stencil9:n=20"}) {
    const auto report = run(spec);
    EXPECT_EQ(report.format_selected, "dia") << spec;
    EXPECT_TRUE(report.all_converged()) << spec;
    std::ostringstream json;
    problems::report_json(report).dump(json);
    EXPECT_NE(json.str().find("\"format_selected\": \"dia\""),
              std::string::npos)
        << json.str();
  }
}

TEST(StreamingReader, FormatAutoSolveMatchesExplicitChoiceBitwise) {
  // Every spelling of `format` is the same pipeline: identical iteration
  // counts and bitwise-equal solutions.
  problems::DriverInput input;
  input.problem = "randspd:n=1000";

  solver::SolverConfig auto_cfg;
  auto_cfg.steps = 2;
  auto_cfg.format = solver::MatrixFormat::kAuto;
  solver::SolverConfig csr_cfg = auto_cfg;
  csr_cfg.format = solver::MatrixFormat::kCsr;

  const auto via_auto = problems::run(input, auto_cfg);
  const auto via_csr = problems::run(input, csr_cfg);
  ASSERT_TRUE(via_auto.batch.ok(0) && via_csr.batch.ok(0));
  EXPECT_EQ(via_auto.batch.reports[0].iterations(),
            via_csr.batch.reports[0].iterations());
  EXPECT_EQ(via_auto.batch.reports[0].solution,
            via_csr.batch.reports[0].solution);
  EXPECT_EQ(via_csr.format_selected, "dia");
}

TEST(StreamingReader, FormatAutoParsesButLeavesTheConfigString) {
  solver::SolverConfig config;
  config.format = solver::MatrixFormat::kAuto;
  const std::string text = config.to_string();
  EXPECT_EQ(text.find("format="), std::string::npos) << text;
  EXPECT_EQ(solver::SolverConfig::from_string(text), config);
  EXPECT_EQ(solver::SolverConfig::from_string("format=auto").format,
            solver::MatrixFormat::kAuto);
  EXPECT_EQ(solver::matrix_format_from_string("auto"),
            solver::MatrixFormat::kAuto);
  EXPECT_THROW((void)solver::matrix_format_from_string("fishy"),
               std::invalid_argument);
  EXPECT_THROW((void)solver::SolverConfig::from_string("format=fishy"),
               std::invalid_argument);
}

}  // namespace
}  // namespace mstep::io
