#include "layers.hpp"

#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "color/greedy.hpp"
#include "shard/halo.hpp"
#include "shard/sharded_operator.hpp"
#include "solver/registry.hpp"
#include "stats.hpp"

namespace perfbench {

namespace la = mstep::la;
namespace solver = mstep::solver;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Runs `fn` and charges its wall to `time`.
template <typename Fn>
void timed(LayerTime& time, Fn&& fn) {
  const double t0 = now_s();
  fn();
  time.seconds += now_s() - t0;
  ++time.calls;
}

double csr_bytes(const la::CsrMatrix& m) {
  return static_cast<double>(m.nnz()) * (sizeof(double) + sizeof(index_t)) +
         static_cast<double>(m.rows() + 1) * sizeof(index_t);
}

/// Per-call seconds of `fn`, repeated until at least 20 us have passed so
/// the clock's own cost does not dominate sub-microsecond codecs.
template <typename Fn>
double per_call_seconds(Fn&& fn) {
  const double t0 = now_s();
  long long calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = now_s() - t0;
  } while (elapsed < 20e-6);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

void TimedOperator::multiply(const Vec& x, Vec& y) const {
  timed(time_, [&] { inner_->multiply(x, y); });
}
void TimedOperator::multiply_sub(const Vec& x, Vec& y) const {
  timed(time_, [&] { inner_->multiply_sub(x, y); });
}

void TimedPreconditioner::apply(const Vec& r, Vec& z) const {
  timed(time_, [&] { inner_->apply(r, z); });
}

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Reference reference_of(const solver::SolveReport& r) {
  return {r.iterations(), r.converged(), r.solution};
}

bool matches(const Reference& ref, int iterations, bool converged,
             const Vec& solution) {
  return converged && ref.converged && iterations == ref.iterations &&
         bitwise_equal(solution, ref.solution);
}

Pipeline build_pipeline(const la::CsrMatrix& k,
                        const mstep::color::ColorClasses& classes,
                        const solver::SolverConfig& config) {
  if (config.ordering != solver::Ordering::kMulticolor ||
      config.splitting != "ssor" || config.steps <= 0) {
    throw std::invalid_argument(
        "build_pipeline: needs the multicolour SSOR m-step path");
  }
  Pipeline p;
  double t0 = now_s();
  const mstep::color::ColorClasses greedy =
      classes.num_classes() == 0 ? mstep::color::greedy_classes_from_matrix(k)
                                 : mstep::color::ColorClasses{};
  p.greedy_s = classes.num_classes() == 0 ? now_s() - t0 : 0.0;

  t0 = now_s();
  p.cs = std::make_unique<mstep::color::ColoredSystem>(
      mstep::color::make_colored_system(
          k, classes.num_classes() == 0 ? greedy : classes));
  p.colored_system_s = now_s() - t0;
  const la::CsrMatrix& a = p.cs->matrix;

  t0 = now_s();
  const auto& entry = solver::SplittingRegistry::instance().at(config.splitting);
  const mstep::core::SpectrumInterval interval =
      config.interval ? *config.interval
                      : entry.default_interval(a, config.splitting_options);
  p.alphas = solver::ParamStrategyRegistry::instance().alphas(
      config.params, config.steps, interval);
  p.params_s = now_s() - t0;

  t0 = now_s();
  p.precond = solver::detail::make_preconditioner(config, p.cs.get(), a,
                                                  p.alphas, nullptr, nullptr)
                  .precond;
  p.precond_build_s = now_s() - t0;

  t0 = now_s();
  p.format = config.format;
  if (p.format == solver::MatrixFormat::kAuto) {
    if (la::DiaMatrix::profitable(a)) {
      p.format = solver::MatrixFormat::kDia;
    } else if (la::SellMatrix::profitable(a)) {
      p.format = solver::MatrixFormat::kSell;
    } else {
      p.format = solver::MatrixFormat::kCsr;
    }
  }
  const double n = static_cast<double>(a.rows());
  if (p.format == solver::MatrixFormat::kDia) {
    p.dia = std::make_unique<la::DiaMatrix>(la::DiaMatrix::from_csr(a));
    p.op = std::make_unique<la::DiaOperator>(*p.dia);
    p.spmv_bytes = static_cast<double>(p.dia->stored_values()) * sizeof(double) +
                   2.0 * n * sizeof(double);
  } else if (p.format == solver::MatrixFormat::kSell) {
    p.sell = std::make_unique<la::SellMatrix>(la::SellMatrix::from_csr(a));
    p.op = std::make_unique<la::SellOperator>(*p.sell);
    p.spmv_bytes = static_cast<double>(p.sell->stored_values()) *
                       (sizeof(double) + sizeof(index_t)) +
                   2.0 * n * sizeof(double);
  } else {
    p.op = std::make_unique<la::CsrOperator>(a);
    p.spmv_bytes = csr_bytes(a) + 2.0 * n * sizeof(double);
  }
  p.format_probe_s = now_s() - t0;

  // Algorithm 2 traverses every off-diagonal entry once per step (value
  // and column index, from its SELL segments) and streams about four
  // n-vectors per step (r, z, the Conrad-Wallach y, the diagonal).
  const double offdiag = static_cast<double>(a.nnz()) - n;
  p.sweep_bytes = static_cast<double>(config.steps) *
                  (offdiag * (sizeof(double) + sizeof(index_t)) +
                   4.0 * n * sizeof(double));
  p.working_set_bytes = working_set_bytes(k, a, p.format, 1);
  return p;
}

double working_set_bytes(const la::CsrMatrix& caller,
                         const la::CsrMatrix& permuted,
                         solver::MatrixFormat format, int lanes) {
  const index_t n = permuted.rows();
  double op_bytes = 0.0;
  if (format == solver::MatrixFormat::kDia) {
    // One full-length diagonal per distinct offset.
    std::vector<char> seen(2 * static_cast<std::size_t>(n), 0);
    long long diagonals = 0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = permuted.row_ptr()[i]; j < permuted.row_ptr()[i + 1];
           ++j) {
        char& s = seen[static_cast<std::size_t>(permuted.col_idx()[j] - i + n)];
        diagonals += s == 0 ? 1 : 0;
        s = 1;
      }
    }
    op_bytes = static_cast<double>(diagonals) * n * sizeof(double);
  } else if (format == solver::MatrixFormat::kSell) {
    op_bytes = csr_bytes(permuted);  // slices, padding aside
  }
  const double offdiag = static_cast<double>(permuted.nnz() - n);
  // Per lane: sweep segments (value + column) and nine n-vectors (PCG u,
  // r, z, p, w, the right-hand side, sweep y, scratch, diagonal).
  const double lane_bytes = offdiag * (sizeof(double) + sizeof(index_t)) +
                            9.0 * n * sizeof(double);
  return csr_bytes(caller) + csr_bytes(permuted) +
         2.0 * n * sizeof(index_t) + op_bytes + lanes * lane_bytes;
}

ShardedPipeline build_sharded(const Pipeline& serial, int shards,
                              mstep::par::ThreadPool& pool) {
  ShardedPipeline s;
  s.plan = std::make_unique<mstep::shard::ShardPlan>(
      mstep::shard::ShardPlan::build(serial.cs->class_start, shards));
  if (serial.dia) {
    s.op = std::make_unique<mstep::shard::ShardedOperator>(*serial.dia,
                                                           *s.plan, pool);
  } else if (serial.sell) {
    s.op = std::make_unique<mstep::shard::ShardedOperator>(*serial.sell,
                                                           *s.plan, pool);
  } else {
    s.op = std::make_unique<mstep::shard::ShardedOperator>(serial.cs->matrix,
                                                           *s.plan, pool);
  }
  s.precond = std::make_unique<mstep::shard::ShardedMulticolorMStepSsor>(
      *serial.cs, serial.alphas, *s.plan, pool);
  for (int shard = 0; shard < s.plan->num_shards(); ++shard) {
    s.ghost_rows += static_cast<long long>(s.precond->halo().ghost_count(shard));
  }
  return s;
}

TracedSolve traced_solve(const la::LinearOperator& op,
                         const mstep::core::Preconditioner& precond,
                         const solver::Prepared& prepared, const Vec& f) {
  const TimedOperator timed_op(op);
  const TimedPreconditioner timed_precond(precond);
  const Vec fp = prepared.permute(f);
  TracedSolve out;
  const double t0 = now_s();
  out.result = mstep::core::pcg_solve(timed_op, fp, timed_precond,
                                      prepared.config().pcg_options());
  out.wall_s = now_s() - t0;
  out.solution = prepared.unpermute(out.result.solution);
  out.spmv = timed_op.time();
  out.sweep = timed_precond.time();
  return out;
}

double fork_join_overhead_us(int threads, int calls, double body_us) {
  // Declared before the pool so it outlives every worker: a worker may
  // still call a finished job's body (the open ThreadPool lifetime race).
  const std::function<void(index_t, index_t)> body =
      [body_us](index_t begin, index_t end) {
        for (index_t i = begin; i < end; ++i) {
          const double until = now_s() + body_us * 1e-6;
          while (now_s() < until) {
          }
        }
      };
  mstep::par::ThreadPool pool(threads);
  const auto chunks = static_cast<index_t>(threads);
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(calls));
  for (int c = 0; c < calls; ++c) {
    const double t0 = now_s();
    pool.for_range(0, chunks, body);
    walls.push_back(now_s() - t0);
  }
  return median(walls) * 1e6 - body_us;
}

CodecTimes time_codecs(const std::vector<mstep::serve::SolveRequest>& requests,
                       const std::vector<mstep::serve::SolveResponse>& responses) {
  using mstep::serve::SolveRequest;
  using mstep::serve::SolveResponse;
  std::vector<double> enc, dec, bytes;
  for (const SolveRequest& r : requests) {
    const std::string payload = r.encode();
    bytes.push_back(static_cast<double>(payload.size()));
    enc.push_back(per_call_seconds([&] { (void)r.encode(); }));
    dec.push_back(per_call_seconds([&] { (void)SolveRequest::decode(payload); }));
  }
  CodecTimes t;
  if (!requests.empty()) {
    t.request_encode_us = median(enc) * 1e6;
    t.request_decode_us = median(dec) * 1e6;
    t.request_bytes = median(bytes);
  }
  enc.clear();
  dec.clear();
  bytes.clear();
  for (const SolveResponse& r : responses) {
    const std::string payload = r.encode();
    bytes.push_back(static_cast<double>(payload.size()));
    enc.push_back(per_call_seconds([&] { (void)r.encode(); }));
    dec.push_back(
        per_call_seconds([&] { (void)SolveResponse::decode(payload); }));
  }
  if (!responses.empty()) {
    t.response_encode_us = median(enc) * 1e6;
    t.response_decode_us = median(dec) * 1e6;
    t.response_bytes = median(bytes);
  }
  return t;
}

}  // namespace perfbench
