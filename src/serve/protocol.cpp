#include "serve/protocol.hpp"

#include <cstring>
#include <limits>

namespace mstep::serve {

const char* to_string(Retcode rc) {
  switch (rc) {
    case Retcode::kOk: return "ok";
    case Retcode::kBadRequest: return "bad_request";
    case Retcode::kBadConfig: return "bad_config";
    case Retcode::kBadProblem: return "bad_problem";
    case Retcode::kSolveFailed: return "solve_failed";
    case Retcode::kBusy: return "busy";
    case Retcode::kShuttingDown: return "shutting_down";
    case Retcode::kProtocol: return "protocol_error";
    case Retcode::kUnknownMatrix: return "unknown_matrix";
  }
  return "unknown_retcode";
}

bool retryable(Retcode rc) {
  return rc == Retcode::kBusy || rc == Retcode::kShuttingDown;
}

// ---- writer ----------------------------------------------------------------

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ProtocolError("string too long for the wire");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::vec(const Vec& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void WireWriter::csr(const la::CsrMatrix& m) {
  u64(static_cast<std::uint64_t>(m.rows()));
  u64(static_cast<std::uint64_t>(m.cols()));
  u64(m.row_ptr().size());
  for (const index_t p : m.row_ptr()) u64(static_cast<std::uint64_t>(p));
  u64(m.col_idx().size());
  for (const index_t c : m.col_idx()) u64(static_cast<std::uint64_t>(c));
  u64(m.values().size());
  for (const double v : m.values()) f64(v);
}

// ---- reader ----------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (pos_ + n > bytes_.size()) {
    throw ProtocolError("truncated payload");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s = bytes_.substr(pos_, n);
  pos_ += n;
  return s;
}

namespace {

/// Element count guard: rejects counts so large that n*8 would wrap
/// before need() could catch the truncation.
std::uint64_t checked_count(std::uint64_t n, const char* what) {
  if (n > (kDefaultMaxPayload / 8)) {
    throw ProtocolError(std::string("implausible ") + what + " count");
  }
  return n;
}

}  // namespace

Vec WireReader::vec() {
  const std::uint64_t n = checked_count(u64(), "vector");
  need(static_cast<std::size_t>(n) * 8);
  Vec v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
  return v;
}

namespace {

index_t checked_index(std::uint64_t v, const char* what) {
  if (v > static_cast<std::uint64_t>(std::numeric_limits<index_t>::max())) {
    throw ProtocolError(std::string(what) + " out of index range");
  }
  return static_cast<index_t>(v);
}

}  // namespace

la::CsrMatrix WireReader::csr() {
  const index_t rows = checked_index(u64(), "rows");
  const index_t cols = checked_index(u64(), "cols");
  const std::uint64_t nptr = checked_count(u64(), "row_ptr");
  std::vector<index_t> row_ptr;
  row_ptr.reserve(nptr);
  for (std::uint64_t i = 0; i < nptr; ++i) {
    row_ptr.push_back(checked_index(u64(), "row_ptr entry"));
  }
  const std::uint64_t ncol = checked_count(u64(), "col_idx");
  std::vector<index_t> col;
  col.reserve(ncol);
  for (std::uint64_t i = 0; i < ncol; ++i) {
    col.push_back(checked_index(u64(), "col_idx entry"));
  }
  const std::uint64_t nval = checked_count(u64(), "values");
  std::vector<double> val;
  val.reserve(nval);
  for (std::uint64_t i = 0; i < nval; ++i) val.push_back(f64());
  try {
    return la::CsrMatrix(rows, cols, std::move(row_ptr), std::move(col),
                         std::move(val));
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("inconsistent CSR payload: ") + e.what());
  }
}

// ---- frame header ----------------------------------------------------------

std::string encode_header(MsgType type, std::uint64_t payload_len) {
  WireWriter w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload_len);
  return w.take();
}

FrameHeader decode_header(const char* bytes, std::uint64_t max_payload) {
  const std::string view(bytes, kHeaderBytes);
  WireReader r(view);
  if (r.u32() != kMagic) {
    throw ProtocolError("bad frame magic (not an MSV2 peer?)");
  }
  const std::uint32_t type = r.u32();
  const std::uint64_t len = r.u64();
  if (type < static_cast<std::uint32_t>(MsgType::kSolve) ||
      type > static_cast<std::uint32_t>(MsgType::kErrorReply)) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  if (len > max_payload) {
    throw ProtocolError("frame payload of " + std::to_string(len) +
                        " bytes exceeds the " + std::to_string(max_payload) +
                        "-byte limit");
  }
  return {static_cast<MsgType>(type), len};
}

// ---- messages --------------------------------------------------------------

std::string SolveRequest::encode() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(source));
  switch (source) {
    case MatrixSource::kCatalog: w.str(problem); break;
    case MatrixSource::kInlineCsr: w.csr(matrix); break;
    case MatrixSource::kFingerprint: w.u64(fingerprint); break;
  }
  w.str(config);
  w.u32(static_cast<std::uint32_t>(rhs.size()));
  for (const Vec& b : rhs) w.vec(b);
  w.u8(want_trace ? 1 : 0);
  return w.take();
}

SolveRequest SolveRequest::decode(const std::string& payload) {
  WireReader r(payload);
  SolveRequest q;
  const std::uint8_t src = r.u8();
  if (src > static_cast<std::uint8_t>(MatrixSource::kFingerprint)) {
    throw ProtocolError("unknown matrix source " + std::to_string(src));
  }
  q.source = static_cast<MatrixSource>(src);
  switch (q.source) {
    case MatrixSource::kCatalog: q.problem = r.str(); break;
    case MatrixSource::kInlineCsr: q.matrix = r.csr(); break;
    case MatrixSource::kFingerprint: q.fingerprint = r.u64(); break;
  }
  q.config = r.str();
  const std::uint32_t nrhs = r.u32();
  q.rhs.reserve(nrhs);
  for (std::uint32_t i = 0; i < nrhs; ++i) q.rhs.push_back(r.vec());
  q.want_trace = r.u8() != 0;
  if (!r.exhausted()) throw ProtocolError("trailing bytes in solve request");
  return q;
}

bool SolveResponse::all_converged() const {
  if (retcode != Retcode::kOk || results.empty()) return false;
  for (const RhsResult& r : results) {
    if (!r.ok || !r.converged) return false;
  }
  return true;
}

std::string SolveResponse::encode() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(retcode));
  if (retcode != Retcode::kOk) {
    w.str(message);
    return w.take();
  }
  w.u8(cache_hit ? 1 : 0);
  w.u64(fingerprint);
  w.f64(setup_seconds);
  w.f64(solve_seconds);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const RhsResult& r : results) {
    w.u8(r.ok ? 1 : 0);
    if (!r.ok) {
      w.str(r.error);
      continue;
    }
    w.u8(r.converged ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(r.iterations));
    w.f64(r.final_delta_inf);
    w.vec(r.solution);
  }
  w.u64(request_id);
  w.str(trace);
  return w.take();
}

SolveResponse SolveResponse::decode(const std::string& payload) {
  WireReader r(payload);
  SolveResponse a;
  a.retcode = static_cast<Retcode>(r.u32());
  if (a.retcode != Retcode::kOk) {
    a.message = r.str();
    if (!r.exhausted()) throw ProtocolError("trailing bytes in solve reply");
    return a;
  }
  a.cache_hit = r.u8() != 0;
  a.fingerprint = r.u64();
  a.setup_seconds = r.f64();
  a.solve_seconds = r.f64();
  const std::uint32_t n = r.u32();
  a.results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RhsResult res;
    res.ok = r.u8() != 0;
    if (!res.ok) {
      res.error = r.str();
    } else {
      res.converged = r.u8() != 0;
      res.iterations = static_cast<std::int32_t>(r.u32());
      res.final_delta_inf = r.f64();
      res.solution = r.vec();
    }
    a.results.push_back(std::move(res));
  }
  a.request_id = r.u64();
  a.trace = r.str();
  if (!r.exhausted()) throw ProtocolError("trailing bytes in solve reply");
  return a;
}

std::string StatusResponse::encode() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(retcode));
  w.str(body);
  return w.take();
}

StatusResponse StatusResponse::decode(const std::string& payload) {
  WireReader r(payload);
  StatusResponse a;
  a.retcode = static_cast<Retcode>(r.u32());
  a.body = r.str();
  if (!r.exhausted()) throw ProtocolError("trailing bytes in status reply");
  return a;
}

}  // namespace mstep::serve
