#include "io/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "io/byte_source.hpp"
#include "io/token_stream.hpp"
#include "util/spec.hpp"

namespace mstep::io {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// ---- token parsing ----------------------------------------------------------

long long parse_index(const MmTokenStream& ts, std::size_t t,
                      const char* what) {
  const MmTokenStream::Token& tok = ts.tokens()[t];
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(tok.text, &pos);
    if (pos != tok.text.size()) throw std::invalid_argument(tok.text);
    return v;
  } catch (const std::out_of_range&) {
    ts.fail(std::string("integer ") + what + " '" + tok.text + "' overflows",
            tok.column);
  } catch (const std::exception&) {
    ts.fail(std::string("expected integer ") + what + ", got '" + tok.text +
                "'",
            tok.column);
  }
}

double parse_value(const MmTokenStream& ts, std::size_t t, MmField field) {
  const MmTokenStream::Token& tok = ts.tokens()[t];
  if (field == MmField::kInteger) {
    return static_cast<double>(parse_index(ts, t, "value"));
  }
  // strtod, not std::stod: a subnormal like 1e-320 is a valid Matrix
  // Market value but makes stod throw out_of_range (ERANGE underflow).
  // The Matrix Market grammar is plain decimal floats: no 'inf'/'nan'
  // tokens (which strtod would happily parse into a silently broken
  // matrix) and no hex floats.
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.text.c_str(), &end);
  if (end != tok.text.c_str() + tok.text.size() || end == tok.text.c_str() ||
      tok.text.find_first_of("xX") != std::string::npos) {
    ts.fail("expected numeric value, got '" + tok.text + "'", tok.column);
  }
  if (errno == ERANGE && std::isinf(v)) {
    ts.fail("value '" + tok.text + "' overflows the double range",
            tok.column);
  }
  if (!std::isfinite(v)) {
    ts.fail("value '" + tok.text + "' is not finite", tok.column);
  }
  return v;
}

index_t checked_dim(const MmTokenStream& ts, std::size_t t,
                    const char* what) {
  const long long v = parse_index(ts, t, what);
  if (v < 0 || v > std::numeric_limits<index_t>::max()) {
    ts.fail(std::string(what) + " " + ts.tokens()[t].text +
                " does not fit the 32-bit index type",
            ts.tokens()[t].column);
  }
  return static_cast<index_t>(v);
}

// ---- header and size line ---------------------------------------------------

MmHeader parse_banner(MmTokenStream& ts) {
  std::string line;
  if (!ts.next_raw_line(&line)) ts.fail("empty file: missing banner");
  // The banner is the one line read raw (comment skipping would eat it),
  // but it tokenizes by the same rule as every other line.
  std::vector<MmTokenStream::Token> tokens;
  MmTokenStream::tokenize(line, &tokens);
  if (tokens.empty() || lower(tokens[0].text) != "%%matrixmarket") {
    ts.fail("banner must start with '%%MatrixMarket'", 1);
  }
  if (tokens.size() != 5) {
    ts.fail("banner wants '%%MatrixMarket matrix <format> <field> <symmetry>'");
  }
  if (lower(tokens[1].text) != "matrix") {
    ts.fail("unsupported object '" + tokens[1].text + "' (only 'matrix')",
            tokens[1].column);
  }
  MmHeader h;
  const std::string format = lower(tokens[2].text);
  if (format == "coordinate") {
    h.format = MmFormat::kCoordinate;
  } else if (format == "array") {
    h.format = MmFormat::kArray;
  } else {
    ts.fail("unknown format '" + tokens[2].text +
                "' (coordinate | array)",
            tokens[2].column);
  }
  const std::string field = lower(tokens[3].text);
  if (field == "real") {
    h.field = MmField::kReal;
  } else if (field == "integer") {
    h.field = MmField::kInteger;
  } else if (field == "pattern") {
    h.field = MmField::kPattern;
  } else if (field == "complex") {
    ts.fail("complex matrices are not supported", tokens[3].column);
  } else {
    ts.fail("unknown field '" + tokens[3].text +
                "' (real | integer | pattern)",
            tokens[3].column);
  }
  const std::string symmetry = lower(tokens[4].text);
  if (symmetry == "general") {
    h.symmetry = MmSymmetry::kGeneral;
  } else if (symmetry == "symmetric") {
    h.symmetry = MmSymmetry::kSymmetric;
  } else if (symmetry == "skew-symmetric") {
    h.symmetry = MmSymmetry::kSkewSymmetric;
  } else if (symmetry == "hermitian") {
    ts.fail("hermitian matrices are not supported", tokens[4].column);
  } else {
    ts.fail("unknown symmetry '" + tokens[4].text +
                "' (general | symmetric | skew-symmetric)",
            tokens[4].column);
  }
  if (h.format == MmFormat::kArray && h.field == MmField::kPattern) {
    ts.fail("array format cannot have a pattern field", tokens[3].column);
  }
  return h;
}

struct MmSize {
  index_t rows = 0;
  index_t cols = 0;
  index_t nnz = 0;  // declared entries; unused for array format
};

MmSize parse_size_line(MmTokenStream& ts, const MmHeader& h) {
  if (!ts.next_content_line()) ts.fail("missing size line");
  const std::size_t want = h.format == MmFormat::kCoordinate ? 3 : 2;
  if (ts.tokens().size() != want) {
    ts.fail("size line wants " + std::to_string(want) + " integers (" +
                (want == 3 ? "rows cols nnz" : "rows cols") + "), got " +
                std::to_string(ts.tokens().size()),
            ts.tokens()[0].column);
  }
  MmSize s;
  s.rows = checked_dim(ts, 0, "row count");
  s.cols = checked_dim(ts, 1, "column count");
  if (h.symmetry != MmSymmetry::kGeneral && s.rows != s.cols) {
    ts.fail(to_string(h.symmetry) + " matrix must be square, got " +
                std::to_string(s.rows) + "x" + std::to_string(s.cols),
            ts.tokens()[0].column);
  }
  if (h.format == MmFormat::kCoordinate) {
    s.nnz = checked_dim(ts, 2, "entry count");
    // Entries are duplicate-free, so rows*cols bounds them; rejecting
    // here keeps a tiny malformed file from driving a giant allocation.
    if (static_cast<long long>(s.nnz) >
        static_cast<long long>(s.rows) * s.cols) {
      ts.fail("entry count " + std::to_string(s.nnz) +
                  " exceeds rows*cols = " +
                  std::to_string(static_cast<long long>(s.rows) * s.cols),
              ts.tokens()[2].column);
    }
  }
  return s;
}

// ---- streaming two-pass coordinate/array reads ------------------------------
//
// Pass 1 tokenizes the whole file, validates every entry, and counts the
// expanded (post-symmetry) nonzeros per row.  The counts become the CSR
// row_ptr by prefix sum; pass 2 rewinds the source and scatters column
// indices and values straight into the preallocated CSR arrays.  Peak
// memory is the final CSR plus one O(rows) cursor array — there is no
// staged triplet vector, so a SuiteSparse-sized file costs what its
// matrix costs.

/// One parsed coordinate entry (0-based, validated against the header).
struct CoordEntry {
  index_t i = 0;
  index_t j = 0;
  double v = 0.0;
};

/// Parse and validate the next coordinate entry; `e` is its 0-based
/// ordinal, used by the end-of-file diagnostic.
CoordEntry next_coord_entry(MmTokenStream& ts, const MmHeader& h,
                            const MmSize& s, index_t e) {
  if (!ts.next_content_line()) {
    ts.fail("unexpected end of file: expected " + std::to_string(s.nnz) +
            " entries, got " + std::to_string(e));
  }
  const std::size_t want = h.field == MmField::kPattern ? 2 : 3;
  if (ts.tokens().size() != want) {
    ts.fail("entry wants " + std::to_string(want) + " tokens (" +
                (want == 2 ? "row col" : "row col value") + "), got " +
                std::to_string(ts.tokens().size()),
            ts.tokens()[0].column);
  }
  const long long i1 = parse_index(ts, 0, "row index");
  const long long j1 = parse_index(ts, 1, "column index");
  if (i1 < 1 || i1 > s.rows) {
    ts.fail("row index " + std::to_string(i1) + " outside [1, " +
                std::to_string(s.rows) + "]",
            ts.tokens()[0].column);
  }
  if (j1 < 1 || j1 > s.cols) {
    ts.fail("column index " + std::to_string(j1) + " outside [1, " +
                std::to_string(s.cols) + "]",
            ts.tokens()[1].column);
  }
  CoordEntry entry;
  entry.i = static_cast<index_t>(i1 - 1);
  entry.j = static_cast<index_t>(j1 - 1);
  if (h.symmetry != MmSymmetry::kGeneral && entry.j > entry.i) {
    ts.fail(to_string(h.symmetry) +
                " storage keeps only the lower triangle; entry (" +
                std::to_string(i1) + ", " + std::to_string(j1) +
                ") lies above the diagonal",
            ts.tokens()[0].column);
  }
  if (h.symmetry == MmSymmetry::kSkewSymmetric && entry.i == entry.j) {
    ts.fail("skew-symmetric matrices have no diagonal entries, got (" +
                std::to_string(i1) + ", " + std::to_string(j1) + ")",
            ts.tokens()[0].column);
  }
  entry.v =
      h.field == MmField::kPattern ? 1.0 : parse_value(ts, 2, h.field);
  return entry;
}

/// Error path only: the duplicate (si, sj) — STORED, 1-based-off-by-one
/// coordinates — was detected after scattering, where per-entry source
/// lines are no longer known.  Re-tokenize the file and report the line
/// of the second stored occurrence, matching what a staged reader would
/// have said.  (A third pass is fine here: diagnostics may be slow, the
/// happy path may not.)
[[noreturn]] void fail_duplicate(MmTokenStream& ts, const MmHeader& h,
                                 const MmSize& s, index_t si, index_t sj) {
  ts.rewind();
  std::string banner;
  (void)ts.next_raw_line(&banner);
  (void)ts.next_content_line();  // size line
  int seen = 0;
  std::size_t line = 0;
  for (index_t e = 0; e < s.nnz; ++e) {
    const CoordEntry entry = next_coord_entry(ts, h, s, e);
    if (entry.i == si && entry.j == sj) {
      line = ts.line_number();
      if (++seen == 2) break;
    }
  }
  throw MatrixMarketError(ts.name(), line, 1,
                          "duplicate entry (" + std::to_string(si + 1) +
                              ", " + std::to_string(sj + 1) + ")");
}

la::CsrMatrix read_coordinate(MmTokenStream& ts, const MmHeader& h,
                              const MmSize& s) {
  // Pass 1: validate every entry and count expanded nonzeros per row.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(s.rows) + 1, 0);
  for (index_t e = 0; e < s.nnz; ++e) {
    const CoordEntry entry = next_coord_entry(ts, h, s, e);
    ++row_ptr[entry.i + 1];
    if (entry.i != entry.j && h.symmetry != MmSymmetry::kGeneral) {
      ++row_ptr[entry.j + 1];
    }
  }
  if (ts.next_content_line()) {
    ts.fail("extra entry after the declared " + std::to_string(s.nnz),
            ts.tokens()[0].column);
  }
  for (index_t i = 0; i < s.rows; ++i) row_ptr[i + 1] += row_ptr[i];
  const std::size_t total = static_cast<std::size_t>(row_ptr[s.rows]);

  // Pass 2: scatter straight into the CSR arrays.
  std::vector<index_t> col(total);
  std::vector<double> val(total);
  std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  ts.rewind();
  std::string banner;
  if (!ts.next_raw_line(&banner) || !ts.next_content_line()) {
    ts.fail("input changed between reader passes");
  }
  for (index_t e = 0; e < s.nnz; ++e) {
    const CoordEntry entry = next_coord_entry(ts, h, s, e);
    col[cursor[entry.i]] = entry.j;
    val[cursor[entry.i]++] = entry.v;
    if (entry.i != entry.j) {
      if (h.symmetry == MmSymmetry::kSymmetric) {
        col[cursor[entry.j]] = entry.i;
        val[cursor[entry.j]++] = entry.v;
      } else if (h.symmetry == MmSymmetry::kSkewSymmetric) {
        col[cursor[entry.j]] = entry.i;
        val[cursor[entry.j]++] = -entry.v;
      }
    }
  }

  // Restore the CSR invariant (columns sorted within each row) and check
  // for duplicates — adjacent equal columns after the sort.  The scratch
  // is O(longest row), reused across rows.
  std::vector<std::pair<index_t, double>> row_scratch;
  for (index_t i = 0; i < s.rows; ++i) {
    const index_t b = row_ptr[i];
    const index_t n = row_ptr[i + 1] - b;
    if (n <= 1) continue;
    row_scratch.resize(static_cast<std::size_t>(n));
    for (index_t k = 0; k < n; ++k) {
      row_scratch[k] = {col[b + k], val[b + k]};
    }
    std::sort(row_scratch.begin(), row_scratch.end(),
              [](const auto& a, const auto& c) { return a.first < c.first; });
    for (index_t k = 0; k < n; ++k) {
      if (k > 0 && row_scratch[k].first == row_scratch[k - 1].first) {
        // Expanded duplicates always come from stored duplicates (mirrors
        // land strictly above the diagonal, stored entries strictly
        // below), so the stored coordinate is the lower-triangle one.
        const index_t j = row_scratch[k].first;
        const index_t si = h.symmetry == MmSymmetry::kGeneral || i >= j
                               ? i
                               : j;
        const index_t sj = si == i ? j : i;
        fail_duplicate(ts, h, s, si, sj);
      }
      col[b + k] = row_scratch[k].first;
      val[b + k] = row_scratch[k].second;
    }
  }
  return la::CsrMatrix(s.rows, s.cols, std::move(row_ptr), std::move(col),
                       std::move(val));
}

la::CsrMatrix read_array(MmTokenStream& ts, const MmHeader& h,
                         const MmSize& s) {
  if (h.symmetry != MmSymmetry::kGeneral && s.rows != s.cols) {
    ts.fail(to_string(h.symmetry) + " array matrix must be square, got " +
            std::to_string(s.rows) + "x" + std::to_string(s.cols));
  }
  const auto start_row = [&](index_t j) {
    if (h.symmetry == MmSymmetry::kSymmetric) return j;
    if (h.symmetry == MmSymmetry::kSkewSymmetric) return j + 1;
    return index_t{0};
  };

  // Pass 1: count the nonzero values per (expanded) row.  Zeros in the
  // dense listing are not stored in the sparse result; the dense writer
  // regenerates them from the shape.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(s.rows) + 1, 0);
  for (index_t j = 0; j < s.cols; ++j) {
    for (index_t i = start_row(j); i < s.rows; ++i) {
      if (!ts.next_content_line()) {
        ts.fail("unexpected end of file in the dense value listing");
      }
      if (ts.tokens().size() != 1) {
        ts.fail("array format wants one value per line, got " +
                    std::to_string(ts.tokens().size()) + " tokens",
                ts.tokens()[0].column);
      }
      const double v = parse_value(ts, 0, h.field);
      if (v == 0.0) continue;
      ++row_ptr[i + 1];
      if (i != j && h.symmetry != MmSymmetry::kGeneral) ++row_ptr[j + 1];
    }
  }
  if (ts.next_content_line()) {
    ts.fail("extra value after the dense listing", ts.tokens()[0].column);
  }
  for (index_t i = 0; i < s.rows; ++i) row_ptr[i + 1] += row_ptr[i];
  const std::size_t total = static_cast<std::size_t>(row_ptr[s.rows]);

  // Pass 2: scatter.  The column-major listing feeds each row its direct
  // entries (ascending j) before its mirrors (ascending i > j), so the
  // scattered rows are already column-sorted — no per-row sort needed,
  // and a dense listing cannot contain duplicates.
  std::vector<index_t> col(total);
  std::vector<double> val(total);
  std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  ts.rewind();
  std::string banner;
  if (!ts.next_raw_line(&banner) || !ts.next_content_line()) {
    ts.fail("input changed between reader passes");
  }
  for (index_t j = 0; j < s.cols; ++j) {
    for (index_t i = start_row(j); i < s.rows; ++i) {
      if (!ts.next_content_line()) {
        ts.fail("input changed between reader passes");
      }
      const double v = parse_value(ts, 0, h.field);
      if (v == 0.0) continue;
      col[cursor[i]] = j;
      val[cursor[i]++] = v;
      if (i != j && h.symmetry != MmSymmetry::kGeneral) {
        col[cursor[j]] = i;
        val[cursor[j]++] =
            h.symmetry == MmSymmetry::kSkewSymmetric ? -v : v;
      }
    }
  }
  return la::CsrMatrix(s.rows, s.cols, std::move(row_ptr), std::move(col),
                       std::move(val));
}

// ---- writer validation ------------------------------------------------------

void check_property(const la::CsrMatrix& a, MmSymmetry symmetry) {
  if (symmetry == MmSymmetry::kGeneral) return;
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("write_matrix_market: " + to_string(symmetry) +
                                " output needs a square matrix");
  }
  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = col[k];
      const double mirror = symmetry == MmSymmetry::kSymmetric
                                ? val[k]
                                : -val[k];
      if (symmetry == MmSymmetry::kSkewSymmetric && i == j &&
          val[k] != 0.0) {
        throw std::invalid_argument(
            "write_matrix_market: skew-symmetric matrix has nonzero "
            "diagonal at row " +
            std::to_string(i + 1));
      }
      if (a.at(j, i) != mirror) {
        throw std::invalid_argument(
            "write_matrix_market: matrix is not " + to_string(symmetry) +
            " at entry (" + std::to_string(i + 1) + ", " +
            std::to_string(j + 1) + ")");
      }
    }
  }
}

/// The writers emit a single "% ..." line; a newline inside the comment
/// would smuggle an unprefixed content line into the file.
void check_comment(const std::string& comment) {
  if (comment.find('\n') != std::string::npos ||
      comment.find('\r') != std::string::npos) {
    throw std::invalid_argument(
        "write_matrix_market: comment must be a single line");
  }
}

std::string value_repr(double v, MmField field) {
  if (field == MmField::kInteger) {
    if (v != std::floor(v) || std::abs(v) > 9.007199254740992e15) {
      throw std::invalid_argument(
          "write_matrix_market: integer field but value " +
          util::format_double(v) + " is not an exact integer");
    }
    return std::to_string(static_cast<long long>(v));
  }
  return util::format_double(v);
}

/// Write `bytes` to `path`, gzip-compressing when the path ends in ".gz"
/// (so writing the twin of a file the reader auto-detects is symmetric).
void write_file_bytes(const std::string& path, const std::string& bytes) {
  const bool gz =
      path.size() >= 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
  // Compress before opening (and only then copy): a gzip_compress throw
  // must not truncate a pre-existing file, and the plain path writes the
  // serialized bytes without another full-size copy.
  const std::string compressed = gz ? gzip_compress(bytes) : std::string();
  const std::string& out_bytes = gz ? compressed : bytes;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw MatrixMarketError(path, 0, 0, "cannot open file for write");
  out.write(out_bytes.data(),
            static_cast<std::streamsize>(out_bytes.size()));
}

}  // namespace

MatrixMarketError::MatrixMarketError(const std::string& name,
                                     std::size_t line, std::size_t column,
                                     const std::string& message)
    : std::runtime_error(name + ":" + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

std::string to_string(MmFormat f) {
  return f == MmFormat::kCoordinate ? "coordinate" : "array";
}

std::string to_string(MmField f) {
  switch (f) {
    case MmField::kReal: return "real";
    case MmField::kInteger: return "integer";
    default: return "pattern";
  }
}

std::string to_string(MmSymmetry s) {
  switch (s) {
    case MmSymmetry::kGeneral: return "general";
    case MmSymmetry::kSymmetric: return "symmetric";
    default: return "skew-symmetric";
  }
}

MmMatrix read_matrix_market(ByteSource& source) {
  MmTokenStream ts(source);
  MmMatrix out;
  out.header = parse_banner(ts);
  const MmSize size = parse_size_line(ts, out.header);
  out.matrix = out.header.format == MmFormat::kCoordinate
                   ? read_coordinate(ts, out.header, size)
                   : read_array(ts, out.header, size);
  return out;
}

MmMatrix read_matrix_market(std::istream& in, const std::string& name) {
  IstreamByteSource raw(in, name);
  // Sniff the gzip magic so in-memory .gz bytes read like .gz files; the
  // sniff costs one rewind, which the two-pass reader requires anyway.
  char magic[2];
  const std::size_t got = raw.read(magic, sizeof(magic));
  raw.rewind();
  if (looks_gzip(magic, got)) {
    auto gz = make_gzip_source(std::make_unique<IstreamByteSource>(in, name));
    return read_matrix_market(*gz);
  }
  return read_matrix_market(raw);
}

MmMatrix read_matrix_market(const std::string& path) {
  const auto source = open_byte_source(path);
  return read_matrix_market(*source);
}

void write_matrix_market(std::ostream& out, const la::CsrMatrix& a,
                         const MmWriteOptions& options) {
  // All validation happens before the first byte is emitted, so a throw
  // never leaves a half-written file behind.
  check_property(a, options.symmetry);
  check_comment(options.comment);
  if (options.format == MmFormat::kArray &&
      options.field == MmField::kPattern) {
    throw std::invalid_argument(
        "write_matrix_market: array format cannot have a pattern field");
  }
  if (options.field == MmField::kInteger) {
    for (const double v : a.values()) (void)value_repr(v, MmField::kInteger);
  } else if (options.field == MmField::kReal) {
    // The reader (correctly) rejects 'nan'/'inf' tokens, so emitting one
    // would break the write -> read round trip.
    for (const double v : a.values()) {
      if (!std::isfinite(v)) {
        throw std::invalid_argument(
            "write_matrix_market: matrix contains a non-finite value");
      }
    }
  }
  out << "%%MatrixMarket matrix " << to_string(options.format) << ' '
      << to_string(options.field) << ' ' << to_string(options.symmetry)
      << '\n';
  if (!options.comment.empty()) out << "% " << options.comment << '\n';

  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  const bool lower_only = options.symmetry != MmSymmetry::kGeneral;
  const bool strict_lower = options.symmetry == MmSymmetry::kSkewSymmetric;

  if (options.format == MmFormat::kArray) {
    out << a.rows() << ' ' << a.cols() << '\n';
    for (index_t j = 0; j < a.cols(); ++j) {
      index_t i0 = 0;
      if (options.symmetry == MmSymmetry::kSymmetric) i0 = j;
      if (strict_lower) i0 = j + 1;
      for (index_t i = i0; i < a.rows(); ++i) {
        out << value_repr(a.at(i, j), options.field) << '\n';
      }
    }
    return;
  }

  index_t stored = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = col[k];
      if (lower_only && (j > i || (strict_lower && j == i))) continue;
      ++stored;
    }
  }
  out << a.rows() << ' ' << a.cols() << ' ' << stored << '\n';
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = col[k];
      if (lower_only && (j > i || (strict_lower && j == i))) continue;
      out << (i + 1) << ' ' << (j + 1);
      if (options.field != MmField::kPattern) {
        out << ' ' << value_repr(val[k], options.field);
      }
      out << '\n';
    }
  }
}

void write_matrix_market(const std::string& path, const la::CsrMatrix& a,
                         const MmWriteOptions& options) {
  // Format fully before touching the file, so a validation throw cannot
  // truncate a pre-existing one.
  std::ostringstream buf;
  write_matrix_market(buf, a, options);
  write_file_bytes(path, buf.str());
}

namespace {

Vec vector_from_matrix(const MmMatrix& mm, const std::string& name) {
  const la::CsrMatrix& a = mm.matrix;
  if (a.cols() != 1 && a.rows() != 1) {
    throw MatrixMarketError(name, 0, 0,
                            "expected a vector (one row or one column), got " +
                                std::to_string(a.rows()) + "x" +
                                std::to_string(a.cols()));
  }
  const bool column = a.cols() == 1;
  Vec v(static_cast<std::size_t>(column ? a.rows() : a.cols()), 0.0);
  const auto& rp = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      v[static_cast<std::size_t>(column ? i : col[k])] = val[k];
    }
  }
  return v;
}

}  // namespace

Vec read_vector(ByteSource& source) {
  return vector_from_matrix(read_matrix_market(source), source.name());
}

Vec read_vector(std::istream& in, const std::string& name) {
  return vector_from_matrix(read_matrix_market(in, name), name);
}

Vec read_vector(const std::string& path) {
  const auto source = open_byte_source(path);
  return read_vector(*source);
}

void write_vector(std::ostream& out, const Vec& v,
                  const std::string& comment) {
  check_comment(comment);
  for (const double x : v) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument(
          "write_vector: vector contains a non-finite value");
    }
  }
  out << "%%MatrixMarket matrix array real general\n";
  if (!comment.empty()) out << "% " << comment << '\n';
  out << v.size() << " 1\n";
  for (const double x : v) out << util::format_double(x) << '\n';
}

void write_vector(const std::string& path, const Vec& v,
                  const std::string& comment) {
  std::ostringstream buf;
  write_vector(buf, v, comment);
  write_file_bytes(path, buf.str());
}

}  // namespace mstep::io
