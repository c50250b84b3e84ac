// The mstep_served wire protocol: length-prefixed frames, explicit
// retcodes, and the request/response payload codecs shared by the daemon
// (serve::Server), the client library (serve::Client), and the tests.
//
// A frame is a fixed 16-byte header — magic, message type, payload length
// — followed by the payload.  All integers are little-endian on the wire
// regardless of host order; doubles travel as their IEEE-754 bit pattern.
// The full layout (and the retcode catalog below) is documented in
// docs/protocol.md; the codecs here ARE that document's normative
// implementation, and tests/test_serve_cache.cpp round-trips them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/vector.hpp"

namespace mstep::serve {

/// Malformed or truncated wire data (bad magic, short payload, oversized
/// frame).  The peer that detects it answers kErrorReply when it still
/// can, then drops the connection.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "MS" + protocol version "V2", read as a little-endian u32.  V2 dropped
/// the reply's layout string; a V1 peer fails here, at the frame header.
inline constexpr std::uint32_t kMagic = 0x3256534du;  // "MSV2"
/// Frame header bytes on the wire: magic u32, type u32, payload_len u64.
inline constexpr std::size_t kHeaderBytes = 16;
/// Default per-frame payload ceiling (1 GiB); the server may lower it.
inline constexpr std::uint64_t kDefaultMaxPayload = 1ull << 30;

/// Message types.  Every request type has exactly one reply type; a peer
/// that cannot parse a request at all answers kErrorReply.
enum class MsgType : std::uint32_t {
  kSolve = 1,
  kSolveReply = 2,
  kMetrics = 3,
  kMetricsReply = 4,
  kShutdown = 5,
  kShutdownReply = 6,
  kErrorReply = 7,
};

/// Explicit result codes, first field of every reply payload.  Stable
/// numeric values — they are the wire contract, not an implementation
/// detail (docs/protocol.md lists them verbatim).
enum class Retcode : std::uint32_t {
  kOk = 0,
  kBadRequest = 1,     // malformed field (e.g. RHS length != n)
  kBadConfig = 2,      // SolverConfig string failed to parse/validate
  kBadProblem = 3,     // catalog spec unknown or rejected
  kSolveFailed = 4,    // prepare/solve threw
  kBusy = 5,           // admission queue full — retryable
  kShuttingDown = 6,   // server draining — retryable elsewhere/later
  kProtocol = 7,       // unintelligible frame
  kUnknownMatrix = 8,  // fingerprint not resident; resend the matrix
};

[[nodiscard]] const char* to_string(Retcode rc);
/// True for codes a client may retry verbatim (after backoff): the
/// request was fine, the server just could not take it right now.
[[nodiscard]] bool retryable(Retcode rc);

// ---- payload codec ---------------------------------------------------------

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// u32 byte count + raw bytes.
  void str(const std::string& s);
  /// u64 element count + f64 each.
  void vec(const Vec& v);
  /// rows, cols, row_ptr, col_idx, values — enough to rebuild the CSR.
  void csr(const la::CsrMatrix& m);

  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over one received payload; every getter throws
/// ProtocolError("truncated payload") past the end.
class WireReader {
 public:
  explicit WireReader(const std::string& bytes) : bytes_(bytes) {}
  // The reader is a view: it must not outlive its buffer, so binding a
  // temporary is a compile error rather than a use-after-scope.
  explicit WireReader(std::string&&) = delete;

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] Vec vec();
  [[nodiscard]] la::CsrMatrix csr();

  /// Everything consumed — replies assert this so a trailing-garbage
  /// frame fails loudly instead of silently succeeding.
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

/// Header codec: encode_header writes exactly kHeaderBytes;
/// decode_header validates the magic and returns {type, payload_len}.
[[nodiscard]] std::string encode_header(MsgType type,
                                        std::uint64_t payload_len);
struct FrameHeader {
  MsgType type;
  std::uint64_t payload_len;
};
[[nodiscard]] FrameHeader decode_header(const char* bytes,
                                        std::uint64_t max_payload);

// ---- messages --------------------------------------------------------------

/// Where the request's matrix comes from.
enum class MatrixSource : std::uint8_t {
  kCatalog = 0,      // `problem` holds a catalog spec, e.g. "poisson3d:n=16"
  kInlineCsr = 1,    // `matrix` holds the full CSR payload
  kFingerprint = 2,  // `fingerprint` names a matrix the server already has
};

/// One solve request: a matrix source, a SolverConfig string, and zero or
/// more right-hand sides.  No RHS means "use the problem's own" (catalog)
/// or the manufactured b = K*1 (inline/fingerprint) — so a bare warm-up
/// request needs no payload beyond the spec.
struct SolveRequest {
  MatrixSource source = MatrixSource::kCatalog;
  std::string problem;             // kCatalog
  la::CsrMatrix matrix;            // kInlineCsr
  std::uint64_t fingerprint = 0;   // kFingerprint
  std::string config;              // SolverConfig string ("" = defaults)
  std::vector<Vec> rhs;
  /// Ask the server to trace this request and return the span events
  /// (Chrome trace-event JSON) in SolveResponse::trace.  Tracing never
  /// changes the solution bits; it only adds the reply payload.
  bool want_trace = false;

  [[nodiscard]] std::string encode() const;
  static SolveRequest decode(const std::string& payload);
};

/// Per-right-hand-side slice of a solve reply.
struct RhsResult {
  bool ok = false;         // false: `error` is set, the rest is empty
  bool converged = false;
  std::int32_t iterations = 0;
  double final_delta_inf = 0.0;
  Vec solution;            // caller ordering
  std::string error;

  friend bool operator==(const RhsResult& a, const RhsResult& b) {
    return a.ok == b.ok && a.converged == b.converged &&
           a.iterations == b.iterations &&
           a.final_delta_inf == b.final_delta_inf &&
           a.solution == b.solution && a.error == b.error;
  }
};

/// The solve reply.  retcode != kOk carries only `message`; kOk carries
/// the cache verdict, the server-computed matrix fingerprint (so a client
/// can switch to MatrixSource::kFingerprint for repeat traffic), and one
/// RhsResult per requested right-hand side.
struct SolveResponse {
  Retcode retcode = Retcode::kOk;
  std::string message;
  bool cache_hit = false;
  std::uint64_t fingerprint = 0;
  double setup_seconds = 0.0;  // preparation paid by THIS request (0 on hit)
  double solve_seconds = 0.0;
  std::vector<RhsResult> results;
  /// Server-assigned id of this request; every span the request emitted
  /// carries it as the trace events' "correlation" arg.
  std::uint64_t request_id = 0;
  /// Chrome trace-event JSON for this request's spans — only when the
  /// request set want_trace, empty otherwise.
  std::string trace;

  [[nodiscard]] bool all_converged() const;

  [[nodiscard]] std::string encode() const;
  static SolveResponse decode(const std::string& payload);
};

/// Metrics / shutdown / error replies share one trivial shape.
struct StatusResponse {
  Retcode retcode = Retcode::kOk;
  std::string body;  // metrics: the JSON document; error: the message

  [[nodiscard]] std::string encode() const;
  static StatusResponse decode(const std::string& payload);
};

}  // namespace mstep::serve
