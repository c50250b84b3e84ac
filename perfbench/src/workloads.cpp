#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "layers.hpp"
#include "problems/problem.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solver/config.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace serve = mstep::serve;
using mstep::color::ColorClasses;
using mstep::la::CsrMatrix;
using mstep::problems::Problem;
using mstep::problems::ProblemRegistry;
using mstep::solver::BatchReport;
using mstep::solver::Prepared;
using mstep::solver::Solver;
using mstep::solver::SolverConfig;
using mstep::solver::SolveReport;
using mstep::util::Span;

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 15;
/// Threads, lanes, shards and client connections: the reference host's
/// nproc, and never more load than that.
constexpr int kWidth = 4;
/// Every kMissPeriod-th request of a served client carries an unseen
/// inline matrix (4 %); the rest are catalog hits.
constexpr long long kMissPeriod = 25;
/// Inline misses per client verified against a direct in-process solve.
constexpr std::size_t kMissChecksPerClient = 4;
/// Every kPayloadSampleEvery-th request/reply pair is kept for codec timing.
constexpr long long kPayloadSampleEvery = 7;
constexpr std::size_t kPayloadSamplesPerClient = 256;

const std::string kPlateConfig = "splitting=ssor;m=4;params=lsq;format=auto";

struct SolveWorkload {
  std::string name;
  int plate_a;
  std::string config;
  int seeded_rhs;  // 0: the plate's own load, solved repeatedly
  /// Pool width of the traced run's 4-shard probe.  Below plate size the
  /// shards run on one thread: the open ThreadPool lifetime race (a late
  /// worker calling a finished job's body) crashes sharded solves of small
  /// systems within a few solves.
  int shard_threads;
};

/// plate_par4 runs but is not listed in BENCHMARK.json: its 4-thread
/// barrier per sweep phase turns the reference VM's steal episodes into
/// 2-4x slower runs, wider than any bound.  plate_serial's traced run
/// measures the same sharded layers on 4 threads.
const std::vector<SolveWorkload>& solve_workloads() {
  static const std::vector<SolveWorkload> workloads = {
      {"plate_serial", 160, kPlateConfig, 0, kWidth},
      {"plate_par4", 160, kPlateConfig + ";shards=4", 0, kWidth},
      {"batch16", 80, kPlateConfig + ";batch=4", 16, 1},
  };
  return workloads;
}

/// The served resident set: small catalog pipelines.
const std::vector<std::pair<std::string, std::string>>& served_targets() {
  static const std::vector<std::pair<std::string, std::string>> targets = {
      {"poisson2d:n=48", "splitting=ssor;m=1"},
      {"poisson2d:n=48", "splitting=ssor;m=2"},
      {"poisson3d:n=14", "splitting=ssor;m=2"},
      {"femplate:a=24", "splitting=ssor;m=2"},
  };
  return targets;
}

SolverConfig parse_config(const std::string& text) {
  SolverConfig config = SolverConfig::from_string(text);
  config.validate();
  return config;
}

/// Empty classes mean greedy colouring, as the daemon's cache does.
Prepared prepare_on(const Solver& solver, const CsrMatrix& k,
                    const ColorClasses& classes) {
  return classes.num_classes() == 0 ? solver.prepare(k)
                                    : solver.prepare(k, classes);
}

std::vector<Vec> seeded_rhs(int count, index_t n, std::uint64_t seed) {
  mstep::util::Rng rng(seed);
  std::vector<Vec> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(rng.uniform_vector(static_cast<std::size_t>(n)));
  }
  return out;
}

/// b = K * 1, the daemon's right-hand side for a matrix without its own.
Vec ones_rhs(const CsrMatrix& k) {
  const Vec ones(static_cast<std::size_t>(k.rows()), 1.0);
  Vec b(ones.size());
  k.multiply(ones, b);
  return b;
}

/// A copy of `k` with its diagonal scaled by `factor` > 1: still SPD,
/// never seen by the daemon before.
CsrMatrix scaled_diagonal(const CsrMatrix& k, double factor) {
  CsrMatrix m = k;
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = m.row_ptr()[i]; j < m.row_ptr()[i + 1]; ++j) {
      if (m.col_idx()[j] == i) m.values()[j] *= factor;
    }
  }
  return m;
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

/// The daemon's Unix socket, inside the build directory of the checkout.
std::string socket_path() {
  static std::atomic<int> serial{0};
  const std::string dir =
      ::access(".bench_build", W_OK) == 0 ? ".bench_build/" : "";
  return dir + "perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(serial.fetch_add(1)) + ".sock";
}

/// An in-process mstep_served daemon on its own accept thread; the
/// destructor drains it and joins the thread.
class ServerHost {
 public:
  explicit ServerHost(std::size_t cache_bytes) {
    serve::ServerOptions options;
    options.unix_path = socket_path();
    options.cache_bytes = cache_bytes;
    server_ = std::make_unique<serve::Server>(options);
    server_->bind();
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::cerr << "perfbench: daemon stopped: " << e.what() << '\n';
      }
    });
  }
  ~ServerHost() {
    server_->request_shutdown();
    thread_.join();
  }
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  [[nodiscard]] std::string endpoint() const {
    return "unix:" + server_->options().unix_path;
  }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

/// What a set of served requests saw, from the client side.
struct ServeTally {
  Outcome outcome;
  std::vector<double> rtt_s;         // every request that got a reply
  std::vector<double> done_s;        // its completion, seconds after origin_s
  std::vector<double> ok_done_s;     // completions of OK, checked replies
  std::vector<double> solve_s;       // server solve_seconds, OK replies
  std::vector<double> overhead_s;    // rtt - setup - solve, OK replies
  std::vector<double> miss_setup_s;  // setup_seconds of cache misses
  long long ok_requests = 0;
  long long ok_rhs = 0;
  long long hits = 0;
  long long busy_retries = 0;
  double wall_s = 0.0;
  double origin_s = 0.0;  // now_s() when the closed loop started
  std::vector<serve::SolveRequest> sample_requests;
  std::vector<serve::SolveResponse> sample_responses;

  void merge(ServeTally&& o) {
    outcome.merge(o.outcome);
    const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(rtt_s, o.rtt_s);
    append(done_s, o.done_s);
    append(ok_done_s, o.ok_done_s);
    append(solve_s, o.solve_s);
    append(overhead_s, o.overhead_s);
    append(miss_setup_s, o.miss_setup_s);
    ok_requests += o.ok_requests;
    ok_rhs += o.ok_rhs;
    hits += o.hits;
    busy_retries += o.busy_retries;
    for (auto& r : o.sample_requests) sample_requests.push_back(std::move(r));
    for (auto& r : o.sample_responses) sample_responses.push_back(std::move(r));
  }
};

/// One served request with retries, recorded in `tally`; `check` judges
/// an OK reply.  Returns the reply.
serve::SolveResponse send(
    serve::Client& client, const serve::SolveRequest& request,
    ServeTally& tally,
    const std::function<bool(const serve::SolveResponse&)>& check) {
  int attempts = 1;
  const double t0 = now_s();
  serve::SolveResponse reply =
      client.solve_with_retry(request, 20, 1, &attempts);
  const double done = now_s();
  const double rtt = done - t0;
  tally.rtt_s.push_back(rtt);
  tally.done_s.push_back(done - tally.origin_s);
  tally.busy_retries += attempts - 1;
  bool ok = reply.retcode == serve::Retcode::kOk;
  if (ok) {
    ++tally.ok_requests;
    tally.ok_rhs += static_cast<long long>(reply.results.size());
    tally.solve_s.push_back(reply.solve_seconds);
    tally.overhead_s.push_back(rtt - reply.setup_seconds - reply.solve_seconds);
    if (reply.cache_hit) {
      ++tally.hits;
    } else {
      tally.miss_setup_s.push_back(reply.setup_seconds);
    }
    ok = check(reply);
  }
  if (ok) tally.ok_done_s.push_back(done - tally.origin_s);
  tally.outcome.record(ok);
  return reply;
}

/// A resident catalog pipeline of served_mix and its direct reference.
struct ServedTarget {
  std::string spec;
  std::string config;
  Problem problem;
  Vec rhs;  // what the daemon solves: the problem's own, else K * 1
  Reference ref;
  std::size_t entry_bytes = 0;  // the cache's charge for this pipeline
};

/// The reference of one served solve: a direct in-process solveMany of
/// `rhs` on the same pipeline the daemon builds.
Reference solve_directly(const Prepared& prepared, const Vec& rhs) {
  const BatchReport batch = prepared.solveMany(Span<const Vec>(&rhs, 1));
  return batch.ok(0) ? reference_of(batch.reports[0]) : Reference{};
}

std::vector<ServedTarget> make_served_targets() {
  std::vector<ServedTarget> targets;
  for (const auto& [spec, config] : served_targets()) {
    ServedTarget t;
    t.spec = spec;
    t.config = config;
    t.problem = ProblemRegistry::instance().create(spec);
    t.rhs = t.problem.rhs.empty() ? ones_rhs(t.problem.matrix) : t.problem.rhs;
    const Prepared prepared =
        prepare_on(Solver::from_config(parse_config(config)),
                   t.problem.matrix, t.problem.classes);
    t.ref = solve_directly(prepared, t.rhs);
    t.entry_bytes = serve::estimate_entry_bytes(
        *serve::make_problem_data(t.problem.matrix, t.problem.classes,
                                  t.problem.rhs),
        prepared);
    targets.push_back(std::move(t));
  }
  return targets;
}

/// Room for the resident set plus one and a half miss pipelines: misses
/// pay insert and LRU eviction, while the hot catalog entries, touched
/// every few requests, stay resident.
std::size_t served_cache_budget(const std::vector<ServedTarget>& targets) {
  std::size_t total = 0;
  std::size_t largest = 0;
  for (const ServedTarget& t : targets) {
    total += t.entry_bytes;
    largest = std::max(largest, t.entry_bytes);
  }
  return total + largest + largest / 2;
}

serve::SolveRequest catalog_request(const ServedTarget& t) {
  serve::SolveRequest request;
  request.source = serve::MatrixSource::kCatalog;
  request.problem = t.spec;
  request.config = t.config;
  return request;
}

bool matches_reply(const Reference& ref, const serve::SolveResponse& reply) {
  return reply.results.size() == 1 && reply.results[0].ok &&
         matches(ref, reply.results[0].iterations, reply.results[0].converged,
                 reply.results[0].solution);
}

/// Start the daemon and prime the resident set, checking each priming
/// reply.  The wall of this is served_mix's set-up.
std::unique_ptr<ServerHost> start_daemon(
    const std::vector<ServedTarget>& targets, std::size_t budget,
    Outcome& outcome) {
  auto host = std::make_unique<ServerHost>(budget);
  serve::Client primer = serve::Client::connect(host->endpoint());
  ServeTally priming;
  for (const ServedTarget& t : targets) {
    (void)send(primer, catalog_request(t), priming,
               [&](const serve::SolveResponse& r) { return matches_reply(t.ref, r); });
  }
  outcome.merge(priming.outcome);
  return host;
}

struct PendingMiss {
  serve::SolveRequest request;
  serve::RhsResult result;
};

/// One closed-loop client: send, wait for the reply, send the next, until
/// `deadline`.  Client `id` starts its rotation through the targets at
/// `id`; its misses fall on a seeded phase of every kMissPeriod requests.
void serve_client(const std::string& endpoint,
                  const std::vector<ServedTarget>& targets, std::uint64_t seed,
                  int id, double deadline, ServeTally& tally,
                  std::vector<PendingMiss>& pending) {
  mstep::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id) + 1);
  const long long phase = static_cast<long long>(rng.uniform_index(kMissPeriod));
  std::optional<serve::Client> client;
  for (long long i = 0; now_s() < deadline; ++i) {
    try {
      if (!client) client.emplace(serve::Client::connect(endpoint));
      const bool miss = (i + phase) % kMissPeriod == 0;
      serve::SolveRequest request;
      const ServedTarget* target = nullptr;
      if (miss) {
        target = &targets[rng.uniform_index(targets.size())];
        request.source = serve::MatrixSource::kInlineCsr;
        request.matrix =
            scaled_diagonal(target->problem.matrix, rng.uniform(1.05, 1.5));
        request.config = target->config;
      } else {
        target = &targets[static_cast<std::size_t>(id + i) % targets.size()];
        request = catalog_request(*target);
      }
      serve::SolveResponse reply =
          send(*client, request, tally, [&](const serve::SolveResponse& r) {
            if (!miss) return matches_reply(target->ref, r);
            const bool ok = r.results.size() == 1 && r.results[0].ok &&
                            r.results[0].converged;
            if (ok && pending.size() < kMissChecksPerClient) {
              pending.push_back({request, r.results[0]});
            }
            return ok;
          });
      if (i % kPayloadSampleEvery == 0 &&
          tally.sample_requests.size() < kPayloadSamplesPerClient) {
        tally.sample_requests.push_back(std::move(request));
        tally.sample_responses.push_back(std::move(reply));
      }
    } catch (const std::exception& e) {
      tally.outcome.record(false);
      client.reset();
      std::cerr << "perfbench: client " << id << ": " << e.what() << '\n';
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// kWidth closed-loop clients for `seconds`; inline misses are verified
/// afterwards against direct in-process solves, a failed check counting
/// against the request it came from.
ServeTally run_serve_loop(const std::string& endpoint,
                          const std::vector<ServedTarget>& targets,
                          std::uint64_t seed, double seconds) {
  std::vector<ServeTally> tallies(kWidth);
  std::vector<std::vector<PendingMiss>> pending(kWidth);
  const double start = now_s();
  for (ServeTally& t : tallies) t.origin_s = start;
  {
    std::vector<std::thread> clients;
    struct Joiner {
      std::vector<std::thread>& threads;
      ~Joiner() {
        for (auto& t : threads) {
          if (t.joinable()) t.join();
        }
      }
    } joiner{clients};
    for (int c = 0; c < kWidth; ++c) {
      clients.emplace_back(serve_client, endpoint, std::cref(targets), seed, c,
                           start + seconds, std::ref(tallies[c]),
                           std::ref(pending[c]));
    }
  }
  ServeTally total;
  total.wall_s = now_s() - start;
  for (int c = 0; c < kWidth; ++c) {
    for (const PendingMiss& miss : pending[c]) {
      const CsrMatrix& k = miss.request.matrix;
      const Reference ref = solve_directly(
          Solver::from_config(parse_config(miss.request.config)).prepare(k),
          ones_rhs(k));
      if (!matches(ref, miss.result.iterations, miss.result.converged,
                   miss.result.solution)) {
        ++tallies[c].outcome.failed;
      }
    }
    total.merge(std::move(tallies[c]));
  }
  return total;
}

/// Served throughput, p50 and p99 over the whole one-second windows of
/// the closed loop after the first, which is warm-up (thread and
/// connection start-up run it at a fraction of the steady rate).
/// Throughput and p99 are taken per window and reported as the median over
/// windows: a burst of contention from outside the process moves one
/// window, not the run.  A run too short for a window of 1000 replies
/// falls back to whole-run figures.
struct Windowed {
  double req_per_s = 0.0;
  double p50_s = 0.0;
  double tail_s = 0.0;
  std::size_t windows = 0;
};

Windowed windowed(const ServeTally& t) {
  const auto whole = static_cast<std::size_t>(std::max(0.0, t.wall_s));
  std::vector<std::vector<double>> rtt(whole);
  std::vector<double> completed(whole, 0.0);
  std::vector<double> measured;
  for (std::size_t i = 0; i < t.rtt_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(t.done_s[i]);
    if (w >= 1 && w < whole) {
      rtt[w].push_back(t.rtt_s[i]);
      measured.push_back(t.rtt_s[i]);
    }
  }
  for (double done : t.ok_done_s) {
    const auto w = static_cast<std::size_t>(done);
    if (w >= 1 && w < whole) completed[w] += 1.0;
  }
  std::vector<double> tails;
  std::vector<double> rates;
  for (std::size_t w = 1; w < whole; ++w) {
    if (const std::optional<double> p99 = percentile(rtt[w], 0.99)) {
      tails.push_back(*p99);
      rates.push_back(completed[w]);
    }
  }
  Windowed out;
  out.windows = tails.size();
  if (tails.empty()) {
    const std::optional<double> p99 = percentile(t.rtt_s, 0.99);
    out.tail_s = p99 ? *p99 : upper_quartile(t.rtt_s);
    out.p50_s = median(t.rtt_s);
    out.req_per_s = static_cast<double>(t.ok_requests) / t.wall_s;
  } else {
    out.tail_s = median(tails);
    out.p50_s = median(measured);
    out.req_per_s = median(rates);
  }
  return out;
}

void set_latency(Metrics& m, const std::vector<double>& op_seconds) {
  m.set("latency_p50_ms", median(op_seconds) * 1e3, "ms");
  // The tail is p99 where the run holds >= 1000 operations (served_mix).
  // A solve workload holds a few dozen solves, so its tail is the upper
  // quartile.
  const std::optional<double> p99 = percentile(op_seconds, 0.99);
  m.set("latency_tail_ms", (p99 ? *p99 : upper_quartile(op_seconds)) * 1e3,
        "ms");
}

void set_common(Metrics& m, const Outcome& outcome) {
  m.set("ok_frac", outcome.ok_frac(), "ratio");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---- solve workloads ---------------------------------------------------

struct SolveInputs {
  Problem problem;
  SolverConfig config;
  std::vector<Vec> rhs;  // [0] is the single-solve right-hand side
};

SolveInputs solve_inputs(const SolveWorkload& w, const RunOptions& o) {
  SolveInputs in;
  const int a = o.plate_a > 0 ? o.plate_a : w.plate_a;
  in.problem =
      ProblemRegistry::instance().create("femplate:a=" + std::to_string(a));
  in.config = parse_config(w.config + o.config_suffix);
  in.rhs = w.seeded_rhs > 0
               ? seeded_rhs(w.seeded_rhs, in.problem.matrix.rows(), o.seed)
               : std::vector<Vec>{in.problem.rhs};
  return in;
}

/// Median of kSetupRepeats Solver::prepare walls; keeps the last pipeline.
Prepared timed_prepare(const Solver& solver, const Problem& problem,
                       std::vector<double>& walls) {
  std::optional<Prepared> prepared;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    Prepared p = prepare_on(solver, problem.matrix, problem.classes);
    walls.push_back(now_s() - t0);
    prepared.emplace(std::move(p));
  }
  return std::move(*prepared);
}

/// The same pipeline with no shards and no lanes: Prepared::solve on it
/// is the serial solve every other path must reproduce bit for bit.
SolverConfig serial_twin(SolverConfig config) {
  config.execution = {};
  config.batch = 0;
  return config;
}

RunResult run_solve_e2e(const SolveWorkload& w, const RunOptions& o) {
  const SolveInputs in = solve_inputs(w, o);
  const Solver solver = Solver::from_config(in.config);
  RunResult result;
  std::vector<double> setup;
  const Prepared prepared = timed_prepare(solver, in.problem, setup);

  std::vector<Reference> refs;
  {
    const bool serial_already = in.config.execution.shard_count() == 0 &&
                                in.config.execution.resolve() == 0;
    std::optional<Prepared> twin;
    if (!serial_already) {
      twin.emplace(prepare_on(Solver::from_config(serial_twin(in.config)),
                              in.problem.matrix, in.problem.classes));
    }
    const Prepared& serial = twin ? *twin : prepared;
    for (const Vec& f : in.rhs) refs.push_back(reference_of(serial.solve(f)));
  }

  // One operation: a Prepared::solve of the plate's load, or one
  // solveMany of all the seeded right-hand sides; every result checked.
  const Span<const Vec> bs(in.rhs.data(), in.rhs.size());
  long long ok_rhs = 0;
  const auto run_op = [&]() {
    bool all_ok = true;
    const auto record = [&](bool ok) {
      result.outcome.record(ok);
      ok_rhs += ok ? 1 : 0;
      all_ok = all_ok && ok;
    };
    try {
      if (w.seeded_rhs == 0) {
        const SolveReport r = prepared.solve(in.rhs[0]);
        record(matches(refs[0], r.iterations(), r.converged(), r.solution));
      } else {
        const BatchReport batch = prepared.solveMany(bs);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          record(batch.ok(i) && matches(refs[i], batch.reports[i].iterations(),
                                        batch.reports[i].converged(),
                                        batch.reports[i].solution));
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: solve threw: " << e.what() << '\n';
      record(false);
    }
    return all_ok;
  };
  // Warm-up, checked but untimed: first touch of the pool and the scratch.
  (void)run_op();
  ok_rhs = 0;

  std::vector<double> op_walls;
  long long ok_ops = 0;
  const double start = now_s();
  while (op_walls.size() < 3 || now_s() - start < o.seconds) {
    const double t0 = now_s();
    const bool ok = run_op();
    op_walls.push_back(now_s() - t0);
    ok_ops += ok ? 1 : 0;
  }
  const double elapsed = now_s() - start;
  double solve_wall_total = 0.0;
  for (double s : op_walls) solve_wall_total += s;

  long long iterations = 0;
  for (const Reference& r : refs) iterations += r.iterations;
  Metrics& m = result.metrics;
  m.set("setup_s", median(setup), "s");
  m.set("solve_s", median(op_walls), "s");
  m.set("iterations", static_cast<double>(iterations), "count");
  m.set("solves_per_s", static_cast<double>(ok_rhs) / solve_wall_total, "1/s");
  m.set("req_per_s", static_cast<double>(ok_ops) / elapsed, "1/s");
  set_latency(m, op_walls);
  set_common(m, result.outcome);
  result.working_set_bytes = working_set_bytes(
      in.problem.matrix, prepared.matrix(), prepared.resolved_format(),
      w.seeded_rhs > 0 ? kWidth : 1);
  std::vector<double> sorted = op_walls;
  std::sort(sorted.begin(), sorted.end());
  std::string walls_text;
  for (double s : sorted) walls_text += " " + std::to_string(s);
  result.notes = "samples solve_s=" + std::to_string(op_walls.size()) +
                 " setup_s=" + std::to_string(setup.size()) +
                 " walls:" + walls_text +
                 " (solve op: " +
                 (w.seeded_rhs > 0 ? "one 16-RHS solveMany" : "one Prepared::solve") +
                 "; latency_tail_ms is the upper quartile)";
  return result;
}

// ---- served_mix --------------------------------------------------------

RunResult run_served_e2e(const RunOptions& o) {
  const std::vector<ServedTarget> targets = make_served_targets();
  const std::size_t budget = served_cache_budget(targets);
  RunResult result;
  std::vector<double> setup;
  std::unique_ptr<ServerHost> host;
  for (int r = 0; r < kSetupRepeats; ++r) {
    host.reset();
    const double t0 = now_s();
    host = start_daemon(targets, budget, result.outcome);
    setup.push_back(now_s() - t0);
  }
  const ServeTally tally =
      run_serve_loop(host->endpoint(), targets, o.seed, o.seconds);
  host.reset();
  result.outcome.merge(tally.outcome);

  long long iterations = 0;
  double working_set = 0.0;
  for (const ServedTarget& t : targets) {
    iterations += t.ref.iterations;
    working_set += static_cast<double>(t.entry_bytes);
  }
  Metrics& m = result.metrics;
  m.set("setup_s", median(setup), "s");
  m.set("solve_s", median(tally.solve_s), "s");
  m.set("iterations", static_cast<double>(iterations), "count");
  const Windowed win = windowed(tally);
  m.set("solves_per_s", win.req_per_s, "1/s");  // one RHS per request
  m.set("req_per_s", win.req_per_s, "1/s");
  m.set("latency_p50_ms", win.p50_s * 1e3, "ms");
  m.set("latency_tail_ms", win.tail_s * 1e3, "ms");
  set_common(m, result.outcome);
  result.working_set_bytes = working_set;
  result.notes = "samples requests=" + std::to_string(tally.rtt_s.size()) +
                 " one-second windows=" + std::to_string(win.windows) +
                 " misses=" + std::to_string(tally.miss_setup_s.size()) +
                 " setup_s=" + std::to_string(setup.size()) +
                 " cache_budget_bytes=" + std::to_string(budget);
  return result;
}

// ---- traced runs -------------------------------------------------------

/// One (matrix, config) pair a traced run takes apart layer by layer.
struct TracedSystem {
  const CsrMatrix* matrix = nullptr;
  const ColorClasses* classes = nullptr;
  SolverConfig config;         // the workload's own config
  std::vector<Vec> batch_rhs;  // lanes probe; [0] is the single solve's
};

struct SystemState {
  std::vector<Reference> refs;  // serial Prepared::solve of each batch RHS
  std::optional<Prepared> own;  // Solver::prepare on the own config
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<ShardedPipeline> sharded;
};

/// Phase A, first so its peak-RSS delta is not hidden under earlier
/// peaks: serial reference solves, then the same right-hand sides through
/// solveMany on kWidth lanes.
void probe_lanes(const std::vector<TracedSystem>& systems,
                 std::vector<SystemState>& state, Outcome& outcome,
                 Metrics& m) {
  std::vector<Prepared> lanes_prepared;
  std::vector<double> serial_median;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    SolverConfig config = serial_twin(systems[s].config);
    config.batch = kWidth;
    lanes_prepared.push_back(prepare_on(Solver::from_config(config),
                                        *systems[s].matrix,
                                        *systems[s].classes));
    std::vector<double> walls;
    for (const Vec& f : systems[s].batch_rhs) {
      const double t0 = now_s();
      const SolveReport report = lanes_prepared.back().solve(f);
      walls.push_back(now_s() - t0);
      state[s].refs.push_back(reference_of(report));
    }
    serial_median.push_back(median(walls));
  }
  const double rss_single = peak_rss_mb();
  double work = 0.0;
  double capacity = 0.0;
  int lanes = 0;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    const std::vector<Vec>& bs = systems[s].batch_rhs;
    const BatchReport batch =
        lanes_prepared[s].solveMany(Span<const Vec>(bs.data(), bs.size()));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      outcome.record(batch.ok(i) &&
                     matches(state[s].refs[i], batch.reports[i].iterations(),
                             batch.reports[i].converged(),
                             batch.reports[i].solution));
    }
    lanes = std::max(lanes, batch.concurrency);
    work += static_cast<double>(bs.size()) * serial_median[s];
    capacity += batch.concurrency * batch.wall_seconds;
  }
  m.set("solver.lanes", lanes, "count");
  m.set("solver.lane_efficiency", work / capacity, "ratio");
  m.set("solver.batch_rss_delta_mb", peak_rss_mb() - rss_single, "MB");
}

/// Phase B: Solver::prepare whole, then its public steps one at a time,
/// each kSetupRepeats times; medians of the per-repeat sums over systems.
/// `extra` are matrices prepared but not solved (served_mix's misses).
void probe_prepare(const std::vector<TracedSystem>& systems,
                   const std::vector<TracedSystem>& extra,
                   std::vector<SystemState>& state, Metrics& m) {
  std::vector<double> prepare_s, colored_s, params_s, precond_s, probe_s;
  std::vector<Solver> solvers;
  for (const TracedSystem& sys : systems) {
    solvers.push_back(Solver::from_config(sys.config));
  }
  for (const TracedSystem& sys : extra) {
    solvers.push_back(Solver::from_config(sys.config));
  }
  for (int r = 0; r < kSetupRepeats; ++r) {
    double prep = 0.0, colored = 0.0, params = 0.0, precond = 0.0, probe = 0.0;
    for (std::size_t s = 0; s < systems.size() + extra.size(); ++s) {
      const TracedSystem& sys =
          s < systems.size() ? systems[s] : extra[s - systems.size()];
      const double t0 = now_s();
      Prepared p = prepare_on(solvers[s], *sys.matrix, *sys.classes);
      prep += now_s() - t0;
      auto pipeline = std::make_unique<Pipeline>(
          build_pipeline(*sys.matrix, *sys.classes, sys.config));
      colored += pipeline->greedy_s + pipeline->colored_system_s;
      params += pipeline->params_s;
      precond += pipeline->precond_build_s;
      probe += pipeline->format_probe_s;
      if (s < systems.size()) {
        state[s].own.emplace(std::move(p));
        state[s].pipeline = std::move(pipeline);
      }
    }
    prepare_s.push_back(prep);
    colored_s.push_back(colored);
    params_s.push_back(params);
    precond_s.push_back(precond);
    probe_s.push_back(probe);
  }
  m.set("color.colored_system_s", median(colored_s), "s");
  m.set("core.params_s", median(params_s), "s");
  m.set("core.precond_build_s", median(precond_s), "s");
  m.set("la.format_probe_s", median(probe_s), "s");
  m.set("solver.prepare_s", median(prepare_s), "s");
}

/// Phase C: rounds of (untraced Prepared::solve, serial decorated solve,
/// sharded decorated solve) per system until `seconds` have passed; every
/// solve is checked against the serial reference.  The workload's own
/// path (sharded on plate_par4, serial elsewhere) feeds core.* and la.*.
/// The 4-shard decomposition runs on a `shard_threads`-wide pool.
void probe_solve_layers(const std::vector<TracedSystem>& systems,
                        std::vector<SystemState>& state, int shard_threads,
                        double seconds, Outcome& outcome, Metrics& m) {
  bool own_sharded = false;
  for (const TracedSystem& sys : systems) {
    own_sharded = own_sharded || sys.config.execution.shard_count() >= 2;
  }
  mstep::par::ThreadPool pool(shard_threads);
  long long ghost_rows = 0;
  for (SystemState& st : state) {
    st.sharded = std::make_unique<ShardedPipeline>(
        build_sharded(*st.pipeline, kWidth, pool));
    ghost_rows += st.sharded->ghost_rows;
  }
  std::vector<double> sweep_s, sweep_gbps, share, bw_ratio, spmv_s, spmv_gbps,
      self_s, shard_sweep_s, shard_spmv_s, speedup, overhead;
  long long sweep_calls = 0;
  long long spmv_calls = 0;
  const double start = now_s();
  while (sweep_s.size() < 3 || now_s() - start < seconds) {
    double wall = 0.0, untraced = 0.0, sweep = 0.0, spmv = 0.0;
    double sweep_bytes = 0.0, spmv_bytes = 0.0;
    double serial_sweep = 0.0, sh_sweep = 0.0, sh_spmv = 0.0;
    sweep_calls = spmv_calls = 0;
    for (std::size_t s = 0; s < systems.size(); ++s) {
      SystemState& st = state[s];
      const Vec& f = systems[s].batch_rhs[0];
      const Reference& ref = st.refs[0];
      const double t0 = now_s();
      const SolveReport plain = st.own->solve(f);
      untraced += now_s() - t0;
      outcome.record(matches(ref, plain.iterations(), plain.converged(),
                             plain.solution));
      const TracedSolve serial =
          traced_solve(*st.pipeline->op, *st.pipeline->precond, *st.own, f);
      const TracedSolve sharded =
          traced_solve(*st.sharded->op, *st.sharded->precond, *st.own, f);
      for (const TracedSolve* t : {&serial, &sharded}) {
        outcome.record(matches(ref, t->result.iterations, t->result.converged,
                               t->solution));
      }
      const TracedSolve& own = own_sharded ? sharded : serial;
      wall += own.wall_s;
      sweep += own.sweep.seconds;
      spmv += own.spmv.seconds;
      sweep_calls += own.sweep.calls;
      spmv_calls += own.spmv.calls;
      sweep_bytes += st.pipeline->sweep_bytes * static_cast<double>(own.sweep.calls);
      spmv_bytes += st.pipeline->spmv_bytes * static_cast<double>(own.spmv.calls);
      serial_sweep += serial.sweep.seconds;
      sh_sweep += sharded.sweep.seconds;
      sh_spmv += sharded.spmv.seconds;
    }
    sweep_s.push_back(sweep);
    spmv_s.push_back(spmv);
    sweep_gbps.push_back(sweep_bytes / sweep / 1e9);
    spmv_gbps.push_back(spmv_bytes / spmv / 1e9);
    share.push_back(sweep / wall);
    bw_ratio.push_back(sweep_gbps.back() / spmv_gbps.back());
    self_s.push_back(wall - sweep - spmv);
    shard_sweep_s.push_back(sh_sweep);
    shard_spmv_s.push_back(sh_spmv);
    speedup.push_back(serial_sweep / sh_sweep);
    overhead.push_back(wall / untraced);
  }
  m.set("core.sweep_s", median(sweep_s), "s");
  m.set("core.sweep_calls", static_cast<double>(sweep_calls), "count");
  m.set("core.sweep_gbps", median(sweep_gbps), "GB/s");
  m.set("core.sweep_share", median(share), "ratio");
  m.set("core.sweep_bw_vs_spmv", median(bw_ratio), "ratio");
  m.set("la.spmv_s", median(spmv_s), "s");
  m.set("la.spmv_calls", static_cast<double>(spmv_calls), "count");
  m.set("la.spmv_gbps", median(spmv_gbps), "GB/s");
  m.set("core.pcg_self_s", median(self_s), "s");
  m.set("shard.sweep_s", median(shard_sweep_s), "s");
  m.set("shard.spmv_s", median(shard_spmv_s), "s");
  m.set("shard.sweep_speedup", median(speedup), "ratio");
  m.set("shard.ghost_rows", static_cast<double>(ghost_rows), "count");
  m.set("obs.trace_overhead_ratio", median(overhead), "ratio");
  // The sharded pipelines hold the pool; release them before it goes.
  for (SystemState& st : state) st.sharded.reset();
}

void set_serve_layers(Metrics& m, const ServeTally& t) {
  m.set("serve.overhead_ms", median_or_zero(t.overhead_s) * 1e3, "ms");
  m.set("serve.solve_ms", median_or_zero(t.solve_s) * 1e3, "ms");
  m.set("serve.miss_setup_ms", median_or_zero(t.miss_setup_s) * 1e3, "ms");
  const CodecTimes c = time_codecs(t.sample_requests, t.sample_responses);
  m.set("serve.request_encode_us", c.request_encode_us, "us");
  m.set("serve.request_decode_us", c.request_decode_us, "us");
  m.set("serve.response_encode_us", c.response_encode_us, "us");
  m.set("serve.response_decode_us", c.response_decode_us, "us");
  m.set("serve.request_bytes", c.request_bytes, "bytes");
  m.set("serve.response_bytes", c.response_bytes, "bytes");
  m.set("serve.cache_hit_rate",
        t.ok_requests > 0 ? static_cast<double>(t.hits) /
                                static_cast<double>(t.ok_requests)
                          : 0.0,
        "ratio");
  m.set("serve.busy_retries", static_cast<double>(t.busy_retries), "count");
}

/// The phases every traced run shares, on the workload's own systems.
void probe_solver_layers(const std::vector<TracedSystem>& systems,
                         const std::vector<TracedSystem>& extra,
                         int shard_threads, double seconds,
                         std::vector<SystemState>& state, RunResult& result) {
  probe_lanes(systems, state, result.outcome, result.metrics);
  probe_prepare(systems, extra, state, result.metrics);
  probe_solve_layers(systems, state, shard_threads, seconds, result.outcome,
                     result.metrics);
  result.metrics.set("par.fork_join_overhead_us",
                     fork_join_overhead_us(kWidth, 2000, 20.0), "us");
  for (const SystemState& st : state) {
    result.working_set_bytes += st.pipeline->working_set_bytes;
  }
}

RunResult run_solve_traced(const SolveWorkload& w, const RunOptions& o) {
  const SolveInputs in = solve_inputs(w, o);
  TracedSystem sys;
  sys.matrix = &in.problem.matrix;
  sys.classes = &in.problem.classes;
  sys.config = in.config;
  sys.batch_rhs = w.seeded_rhs > 0 ? in.rhs
                                   : std::vector<Vec>(kWidth, in.rhs[0]);
  std::vector<SystemState> state(1);
  RunResult result;
  probe_solver_layers({sys}, {}, w.shard_threads, o.seconds, state, result);

  // The serve layer on this system: one miss, then two hits, each
  // checked against the serial references.
  ServeTally probe;
  {
    ServerHost host(serve::ServerOptions{}.cache_bytes);
    serve::Client client = serve::Client::connect(host.endpoint());
    serve::SolveRequest request;
    request.problem = in.problem.spec.to_string();
    request.config = in.config.to_string();
    if (w.seeded_rhs > 0) request.rhs = in.rhs;
    const std::vector<Reference>& refs = state[0].refs;
    for (int r = 0; r < 3; ++r) {
      serve::SolveResponse reply =
          send(client, request, probe, [&](const serve::SolveResponse& rep) {
            if (rep.results.size() != in.rhs.size()) return false;
            for (std::size_t i = 0; i < rep.results.size(); ++i) {
              if (!rep.results[i].ok ||
                  !matches(refs[i], rep.results[i].iterations,
                           rep.results[i].converged, rep.results[i].solution)) {
                return false;
              }
            }
            return true;
          });
      probe.sample_requests.push_back(request);
      probe.sample_responses.push_back(std::move(reply));
    }
  }
  result.outcome.merge(probe.outcome);
  set_serve_layers(result.metrics, probe);
  result.notes = "traced rounds over " + std::to_string(o.seconds) +
                 " s; serve probe: 1 miss + 2 hits";
  return result;
}

RunResult run_served_traced(const RunOptions& o) {
  const std::vector<ServedTarget> targets = make_served_targets();
  std::vector<TracedSystem> systems;
  std::vector<CsrMatrix> miss_matrices;
  mstep::util::Rng rng(o.seed);
  for (const ServedTarget& t : targets) {
    TracedSystem sys;
    sys.matrix = &t.problem.matrix;
    sys.classes = &t.problem.classes;
    sys.config = parse_config(t.config);
    sys.batch_rhs = std::vector<Vec>(kWidth, t.rhs);
    systems.push_back(std::move(sys));
    miss_matrices.push_back(
        scaled_diagonal(t.problem.matrix, rng.uniform(1.05, 1.5)));
  }
  // Misses are prepared from scratch, greedy colouring included.
  static const ColorClasses kGreedy;
  std::vector<TracedSystem> misses;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TracedSystem sys;
    sys.matrix = &miss_matrices[i];
    sys.classes = &kGreedy;
    sys.config = systems[i].config;
    misses.push_back(std::move(sys));
  }
  std::vector<SystemState> state(systems.size());
  RunResult result;
  // Solve layers get a quarter of the run; the serve loop the rest.
  probe_solver_layers(systems, misses, 1, 0.25 * o.seconds, state, result);

  const std::size_t budget = served_cache_budget(targets);
  const std::unique_ptr<ServerHost> host =
      start_daemon(targets, budget, result.outcome);
  const ServeTally tally =
      run_serve_loop(host->endpoint(), targets, o.seed, 0.75 * o.seconds);
  result.outcome.merge(tally.outcome);
  set_serve_layers(result.metrics, tally);
  result.notes = "served requests=" + std::to_string(tally.rtt_s.size()) +
                 " payload samples=" +
                 std::to_string(tally.sample_requests.size());
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"plate_serial", "plate_par4",
                                                 "batch16", "served_mix"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "served_mix") {
    return options.trace ? run_served_traced(options) : run_served_e2e(options);
  }
  for (const SolveWorkload& w : solve_workloads()) {
    if (w.name == options.workload) {
      return options.trace ? run_solve_traced(w, options)
                           : run_solve_e2e(w, options);
    }
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
