// The serve subsystem's process-local contracts: wire codec round-trips
// (including truncation and bad-magic rejection), content fingerprints,
// the prepared-pipeline cache (hit on identical matrix+config, miss when
// either changes, LRU eviction under a tiny byte budget, bitwise identity
// with a direct Solver run), the admission gate, and the latency
// histogram.  The daemon end-to-end paths live in tests/test_served.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "problems/problem.hpp"
#include "serve/cache.hpp"
#include "serve/hash.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "solver/solver.hpp"

namespace mstep::serve {
namespace {

la::CsrMatrix tiny_spd() {
  // [4 1 0; 1 4 1; 0 1 4] — SPD, strictly diagonally dominant.
  return la::CsrMatrix(3, 3, {0, 2, 5, 7}, {0, 1, 0, 1, 2, 1, 2},
                       {4.0, 1.0, 1.0, 4.0, 1.0, 1.0, 4.0});
}

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.1);
  w.str("hello frame");
  w.vec({1.0, -2.5, 3e-300});
  const std::string bytes = w.bytes();

  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -0.1);  // exact: bit-pattern transport
  EXPECT_EQ(r.str(), "hello frame");
  EXPECT_EQ(r.vec(), (Vec{1.0, -2.5, 3e-300}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, CsrRoundTrip) {
  const la::CsrMatrix m = tiny_spd();
  WireWriter w;
  w.csr(m);
  WireReader r(w.bytes());
  const la::CsrMatrix back = r.csr();
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_EQ(back.row_ptr(), m.row_ptr());
  EXPECT_EQ(back.col_idx(), m.col_idx());
  EXPECT_EQ(back.values(), m.values());
}

TEST(Wire, TruncatedPayloadThrows) {
  WireWriter w;
  w.str("four byte length prefix plus this text");
  const std::string bytes = w.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string truncated = bytes.substr(0, cut);
    WireReader r(truncated);
    EXPECT_THROW((void)r.str(), ProtocolError) << "cut at " << cut;
  }
  // A count field promising more elements than the payload holds must
  // throw, not allocate first and fault later.
  WireWriter huge;
  huge.u64(~0ull);
  WireReader r(huge.bytes());
  EXPECT_THROW((void)r.vec(), ProtocolError);
}

TEST(Wire, HeaderRoundTripAndRejection) {
  const std::string h = encode_header(MsgType::kSolve, 1234);
  ASSERT_EQ(h.size(), kHeaderBytes);
  const FrameHeader fh = decode_header(h.data(), kDefaultMaxPayload);
  EXPECT_EQ(fh.type, MsgType::kSolve);
  EXPECT_EQ(fh.payload_len, 1234u);

  EXPECT_EQ(h.substr(0, 4), "MSV2");
  std::string bad_magic = h;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)decode_header(bad_magic.data(), kDefaultMaxPayload),
               ProtocolError);
  // The previous protocol version's header is refused the same way.
  std::string v1 = h;
  v1[3] = '1';
  EXPECT_THROW((void)decode_header(v1.data(), kDefaultMaxPayload),
               ProtocolError);
  // Payload length above the receiver's ceiling is rejected at the header.
  EXPECT_THROW((void)decode_header(h.data(), 100), ProtocolError);
}

TEST(Wire, SolveRequestRoundTrip) {
  SolveRequest q;
  q.source = MatrixSource::kInlineCsr;
  q.matrix = tiny_spd();
  q.config = "splitting=ssor;m=2";
  q.rhs = {{1.0, 2.0, 3.0}, {0.5, 0.25, 0.125}};
  const SolveRequest back = SolveRequest::decode(q.encode());
  EXPECT_EQ(back.source, MatrixSource::kInlineCsr);
  EXPECT_EQ(back.matrix.values(), q.matrix.values());
  EXPECT_EQ(back.config, q.config);
  EXPECT_EQ(back.rhs, q.rhs);

  SolveRequest fp;
  fp.source = MatrixSource::kFingerprint;
  fp.fingerprint = 0xfeedfacecafebeefull;
  const SolveRequest fp_back = SolveRequest::decode(fp.encode());
  EXPECT_EQ(fp_back.source, MatrixSource::kFingerprint);
  EXPECT_EQ(fp_back.fingerprint, 0xfeedfacecafebeefull);
}

TEST(Wire, SolveResponseRoundTrip) {
  SolveResponse p;
  p.retcode = Retcode::kOk;
  p.cache_hit = true;
  p.fingerprint = 42;
  p.setup_seconds = 0.0;
  p.solve_seconds = 1.5;
  RhsResult good;
  good.ok = true;
  good.converged = true;
  good.iterations = 7;
  good.final_delta_inf = 1e-9;
  good.solution = {1.0, 2.0};
  RhsResult bad;
  bad.error = "singular splitting";
  p.results = {good, bad};
  const SolveResponse back = SolveResponse::decode(p.encode());
  EXPECT_EQ(back.retcode, Retcode::kOk);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.fingerprint, 42u);
  EXPECT_EQ(back.results, p.results);
  EXPECT_FALSE(back.all_converged());  // the failed RHS counts

  StatusResponse s;
  s.retcode = Retcode::kBusy;
  s.body = "queue full";
  const StatusResponse s_back = StatusResponse::decode(s.encode());
  EXPECT_EQ(s_back.retcode, Retcode::kBusy);
  EXPECT_EQ(s_back.body, "queue full");
}

TEST(Wire, RetcodeCatalog) {
  EXPECT_STREQ(to_string(Retcode::kOk), "ok");
  EXPECT_TRUE(retryable(Retcode::kBusy));
  EXPECT_TRUE(retryable(Retcode::kShuttingDown));
  EXPECT_FALSE(retryable(Retcode::kBadConfig));
  EXPECT_FALSE(retryable(Retcode::kUnknownMatrix));
}

TEST(Hash, ContentSensitivity) {
  const la::CsrMatrix a = tiny_spd();
  la::CsrMatrix b = tiny_spd();
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));
  b.values()[0] = std::nextafter(b.values()[0], 5.0);  // one ulp flips it
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(b));
}

TEST(Hash, ClassesFoldIntoPipelineFingerprint) {
  const la::CsrMatrix m = tiny_spd();
  // No classes: the pipeline hash IS the matrix hash, so an inline
  // resend of a greedy-coloured matrix lands on the same entry.
  EXPECT_EQ(pipeline_fingerprint(m, {}), matrix_fingerprint(m));
  // Closed-form classes build a different ordering — different pipeline.
  color::ColorClasses classes;
  classes.classes = {{0, 2}, {1}};
  EXPECT_NE(pipeline_fingerprint(m, classes), matrix_fingerprint(m));
}

TEST(Hash, HexRoundTrip) {
  EXPECT_EQ(fingerprint_hex(0xabcull), "0000000000000abc");
  EXPECT_EQ(fingerprint_from_hex("0000000000000abc"), 0xabcull);
  EXPECT_EQ(fingerprint_from_hex("0xABC"), 0xabcull);
  EXPECT_THROW((void)fingerprint_from_hex("not hex"), std::invalid_argument);
  const std::uint64_t fp = matrix_fingerprint(tiny_spd());
  EXPECT_EQ(fingerprint_from_hex(fingerprint_hex(fp)), fp);
}

// ---- prepared-pipeline cache ----------------------------------------------

struct CacheFixture {
  std::shared_ptr<const ProblemData> load(const std::string& spec) {
    problems::Problem p = problems::ProblemRegistry::instance().create(spec);
    return make_problem_data(std::move(p.matrix), std::move(p.classes),
                             std::move(p.rhs), p.description);
  }

  PreparedCache::Lookup get(PreparedCache& cache,
                            std::shared_ptr<const ProblemData> data,
                            const std::string& config_text) {
    const auto config = solver::SolverConfig::from_string(config_text);
    return cache.get_or_prepare(data->fingerprint, config, config.to_string(),
                                [&data] { return data; });
  }
};

TEST(PreparedCache, HitOnIdenticalMatrixAndConfig) {
  CacheFixture fx;
  PreparedCache cache(64ull << 20);
  const auto data = fx.load("poisson2d:n=8");

  const auto first = fx.get(cache, data, "splitting=ssor;m=2");
  EXPECT_FALSE(first.hit);
  const auto second = fx.get(cache, data, "splitting=ssor;m=2");
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.entry.get(), second.entry.get());
  // Config-string spelling does not matter, the canonical form is the key.
  const auto reordered = fx.get(cache, data, "m=2;splitting=ssor");
  EXPECT_TRUE(reordered.hit);
  // Nor does the `format` alias: every spelling runs on the one storage.
  for (const char* format : {"csr", "dia", "sell", "auto"}) {
    EXPECT_TRUE(fx.get(cache, data,
                       std::string("splitting=ssor;m=2;format=") + format)
                    .hit)
        << format;
  }

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PreparedCache, MissWhenEitherKeyHalfChanges) {
  CacheFixture fx;
  PreparedCache cache(64ull << 20);
  const auto data = fx.load("poisson2d:n=8");
  const auto other = fx.load("poisson2d:n=9");
  ASSERT_NE(data->fingerprint, other->fingerprint);

  EXPECT_FALSE(fx.get(cache, data, "splitting=ssor;m=2").hit);
  EXPECT_FALSE(fx.get(cache, data, "splitting=ssor;m=3").hit);   // new config
  EXPECT_FALSE(fx.get(cache, other, "splitting=ssor;m=2").hit);  // new matrix
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PreparedCache, LruEvictionUnderTinyBudget) {
  CacheFixture fx;
  // A budget no real pipeline fits: every insert evicts the rest, but the
  // incoming entry itself is always admitted.
  PreparedCache cache(1);
  const auto a = fx.load("poisson2d:n=8");
  const auto b = fx.load("poisson2d:n=9");

  EXPECT_FALSE(fx.get(cache, a, "splitting=ssor;m=2").hit);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE(fx.get(cache, b, "splitting=ssor;m=2").hit);  // evicts a
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
  // a is gone: the revisit misses again, and its matrix is no longer
  // addressable by fingerprint.
  EXPECT_EQ(cache.find_matrix(a->fingerprint), nullptr);
  EXPECT_FALSE(fx.get(cache, a, "splitting=ssor;m=2").hit);
}

TEST(PreparedCache, LruEvictsLeastRecentlyUsedFirst) {
  CacheFixture fx;
  const auto a = fx.load("poisson2d:n=8");
  const auto b = fx.load("poisson2d:n=9");
  const auto c = fx.load("poisson2d:n=10");
  // Budget sized from the real estimates: any two of the three entries
  // fit, all three do not.
  PreparedCache probe(64ull << 20);
  (void)fx.get(probe, a, "splitting=ssor;m=2");
  (void)fx.get(probe, b, "splitting=ssor;m=2");
  (void)fx.get(probe, c, "splitting=ssor;m=2");
  const std::size_t three_entries = probe.stats().bytes;

  PreparedCache cache(three_entries - 1);
  (void)fx.get(cache, a, "splitting=ssor;m=2");
  (void)fx.get(cache, b, "splitting=ssor;m=2");
  EXPECT_TRUE(fx.get(cache, a, "splitting=ssor;m=2").hit);  // a now MRU
  (void)fx.get(cache, c, "splitting=ssor;m=2");  // evicts exactly b (LRU)
  EXPECT_NE(cache.find_matrix(a->fingerprint), nullptr);
  EXPECT_EQ(cache.find_matrix(b->fingerprint), nullptr);
  EXPECT_TRUE(fx.get(cache, a, "splitting=ssor;m=2").hit);
}

TEST(PreparedCache, CachedPipelineIsBitwiseIdenticalToDirectSolve) {
  CacheFixture fx;
  PreparedCache cache(64ull << 20);
  const std::string config_text = "splitting=ssor;m=2";
  const auto data = fx.load("femplate:a=8");  // ships closed-form classes
  ASSERT_FALSE(data->classes.classes.empty());

  const auto lookup = fx.get(cache, data, config_text);
  const std::vector<Vec> bs{data->rhs};
  const solver::BatchReport served = lookup.entry->prepared.solveMany(
      util::Span<const Vec>(bs.data(), bs.size()));

  solver::Solver direct = solver::Solver::from_config(
      solver::SolverConfig::from_string(config_text));
  const solver::Prepared prepared =
      direct.prepare(data->matrix, data->classes);
  const solver::BatchReport want =
      prepared.solveMany(util::Span<const Vec>(bs.data(), bs.size()));

  ASSERT_EQ(served.reports.size(), 1u);
  ASSERT_EQ(want.reports.size(), 1u);
  EXPECT_TRUE(want.reports[0].converged());
  EXPECT_EQ(served.reports[0].iterations(), want.reports[0].iterations());
  EXPECT_EQ(served.reports[0].result.final_delta_inf,
            want.reports[0].result.final_delta_inf);
  EXPECT_EQ(served.reports[0].solution, want.reports[0].solution);
}

// ---- admission gate and histogram -----------------------------------------

TEST(Admission, BoundsInflightAndRecovers) {
  Admission gate(2);
  EXPECT_TRUE(gate.try_enter());
  EXPECT_TRUE(gate.try_enter());
  EXPECT_FALSE(gate.try_enter());  // full: this request is shed as kBusy
  EXPECT_EQ(gate.depth(), 2);
  gate.leave();
  EXPECT_TRUE(gate.try_enter());
  gate.leave();
  gate.leave();
  EXPECT_EQ(gate.depth(), 0);
}

TEST(LatencyHistogram, SummaryTracksSamples) {
  LatencyHistogram h;
  EXPECT_EQ(h.summary().count, 0u);
  for (int i = 0; i < 90; ++i) h.record(1e-3);
  for (int i = 0; i < 10; ++i) h.record(1.0);  // a slow 10% tail
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_NEAR(s.mean, (90 * 1e-3 + 10.0) / 100.0, 1e-12);
  // Log-bucketed percentiles: the right bucket, not exact values (the
  // geometric bucket midpoint may sit slightly above the true max).
  EXPECT_GT(s.p50, 0.5e-3);
  EXPECT_LT(s.p50, 2e-3);
  EXPECT_GT(s.p99, 0.5);  // the tail owns p99
  EXPECT_LT(s.p99, 2.0);
}

}  // namespace
}  // namespace mstep::serve
