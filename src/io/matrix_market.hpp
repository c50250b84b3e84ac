// Matrix Market (ANSI .mtx) reader and writer, streaming.
//
// The standard exchange format for sparse matrices (NIST/matrix-market):
// a banner line, optional % comments, a size line, then entries.  This
// module covers the SPD-solver-relevant subset — coordinate and array
// formats, real/integer/pattern fields, general/symmetric/skew-symmetric
// storage — converting to and from la::CsrMatrix with symmetric storage
// expanded on read, plus dense vector (right-hand side) files.
//
// Reading is a two-pass streaming parse over a ByteSource (file, buffer,
// istream, or gzip — .mtx.gz is auto-detected from the magic bytes):
// pass 1 validates and counts nonzeros per row, pass 2 scatters straight
// into the preallocated CSR arrays.  Peak memory is O(nnz in CSR) — there
// is no staged triplet vector — so SuiteSparse-collection-sized files
// cost what their matrix costs.  See docs/file-formats.md for the full
// accepted grammar and every diagnostic.
//
// Diagnostics are precise: every parse failure throws MatrixMarketError
// carrying the file name, 1-based line, and 1-based column of the
// offending token, formatted "file:line:col: message" — a malformed file
// is a clear error, never a crash or a silently wrong matrix.
//
// The writer emits shortest round-trip decimal values (util::format_double)
// in a canonical layout (row-major entries, one comment line max), so
// write -> read -> write is byte-identical — asserted by
// tests/test_matrix_market.cpp and the property the fixture files under
// tests/data/ are generated with.  Writing to a path ending in ".gz"
// gzip-compresses the same canonical bytes.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "la/csr_matrix.hpp"
#include "la/vector.hpp"

namespace mstep::io {

class ByteSource;

/// Parse failure with source position; what() reads "file:line:col: msg"
/// (line/col 0 when the error concerns the file as a whole, e.g. an
/// unopenable path or a corrupt/truncated gzip stream).
class MatrixMarketError : public std::runtime_error {
 public:
  MatrixMarketError(const std::string& name, std::size_t line,
                    std::size_t column, const std::string& message);

  /// 1-based source line of the offending token (0 = whole file).
  [[nodiscard]] std::size_t line() const { return line_; }
  /// 1-based source column of the offending token (0 = whole line).
  [[nodiscard]] std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Entry layout declared in the banner: sparse triplets or a dense
/// column-major listing.
enum class MmFormat { kCoordinate, kArray };
/// Value domain declared in the banner (complex is rejected with a
/// diagnostic; pattern entries read as 1.0).
enum class MmField { kReal, kInteger, kPattern };
/// Storage symmetry declared in the banner; symmetric/skew files store
/// only the lower triangle, which the reader expands.
enum class MmSymmetry { kGeneral, kSymmetric, kSkewSymmetric };

[[nodiscard]] std::string to_string(MmFormat f);
[[nodiscard]] std::string to_string(MmField f);
[[nodiscard]] std::string to_string(MmSymmetry s);

/// The banner as declared in the file.
struct MmHeader {
  MmFormat format = MmFormat::kCoordinate;
  MmField field = MmField::kReal;
  MmSymmetry symmetry = MmSymmetry::kGeneral;
};

/// A read matrix: CSR with symmetric/skew storage fully expanded (the
/// matrix is the mathematical one, independent of how the file stored
/// it), the banner it was declared with, and the bandedness probe for
/// the DIA layout decision.
struct MmMatrix {
  la::CsrMatrix matrix;
  MmHeader header;
  /// True when la::DiaMatrix::profitable says the matrix has few enough
  /// distinct diagonals for full-length diagonal storage to pay (e.g.
  /// banded stencils) — a structure fact; every solve runs on the same
  /// run storage whatever it says.
  bool dia_friendly = false;
};

/// Read from any ByteSource (the streaming core: file, buffer, gzip —
/// see io/byte_source.hpp).  The source must support rewind(), which the
/// two-pass reader uses between the counting and scattering passes.
[[nodiscard]] MmMatrix read_matrix_market(ByteSource& source);

/// Read from a caller-owned stream.  The stream must be seekable
/// (istringstream/ifstream are); gzip bytes are auto-detected just like
/// the path overload.  `name` is the diagnostic prefix.
[[nodiscard]] MmMatrix read_matrix_market(std::istream& in,
                                          const std::string& name = "<mtx>");

/// Open and read `path`, auto-detecting gzip (.mtx.gz) from the magic
/// bytes; throws MatrixMarketError (line 0) when unreadable.
[[nodiscard]] MmMatrix read_matrix_market(const std::string& path);

/// Writer knobs; the defaults emit coordinate/real/general.
struct MmWriteOptions {
  MmFormat format = MmFormat::kCoordinate;
  MmField field = MmField::kReal;
  /// kSymmetric / kSkewSymmetric store only the lower triangle; the
  /// writer verifies the matrix actually has the property (exactly, entry
  /// by entry) and throws std::invalid_argument otherwise.
  MmSymmetry symmetry = MmSymmetry::kGeneral;
  /// Optional single "% ..." comment line after the banner.
  std::string comment;
};

/// Write `a` in the canonical layout (write -> read -> write is
/// byte-identical).  Validates fully before emitting the first byte.
void write_matrix_market(std::ostream& out, const la::CsrMatrix& a,
                         const MmWriteOptions& options = {});
/// Same, to a file; a path ending in ".gz" is gzip-compressed.  A
/// validation failure never truncates a pre-existing file.
void write_matrix_market(const std::string& path, const la::CsrMatrix& a,
                         const MmWriteOptions& options = {});

/// Read a dense vector: an array-format n-by-1 (or 1-by-n) file, or a
/// coordinate n-by-1 file (absent entries read 0).  Gzip handled like
/// the matrix readers.
[[nodiscard]] Vec read_vector(ByteSource& source);
[[nodiscard]] Vec read_vector(std::istream& in,
                              const std::string& name = "<mtx>");
[[nodiscard]] Vec read_vector(const std::string& path);

/// Write a dense vector as array-format n-by-1 real; a ".gz" path is
/// gzip-compressed.
void write_vector(std::ostream& out, const Vec& v,
                  const std::string& comment = {});
void write_vector(const std::string& path, const Vec& v,
                  const std::string& comment = {});

}  // namespace mstep::io
