#include "serve/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "problems/problem.hpp"
#include "serve/hash.hpp"
#include "solver/config.hpp"
#include "util/span.hpp"

namespace mstep::serve {

namespace {

/// First read of a payload; each later read doubles what has arrived.
constexpr std::size_t kPayloadChunk = std::size_t{64} << 10;

/// Reads a `len`-byte payload into `out`, growing it only as bytes arrive:
/// a header may claim up to max_payload, but memory follows what the peer
/// actually sends (at most twice it).  False when the peer closes first.
bool read_payload(Socket& sock, std::size_t len, std::string& out) {
  try {
    while (out.size() < len) {
      const std::size_t got = out.size();
      out.resize(got + std::min(std::max(kPayloadChunk, got), len - got));
      if (!sock.read_exact(&out[got], out.size() - got)) return false;
    }
  } catch (const SocketError&) {
    return false;  // closed partway through a read
  }
  return true;
}

/// The self-pipe the signal handlers write to.  One live server per
/// process (install_signal_handlers documents "latest wins").
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<Server*> g_signal_server{nullptr};

extern "C" void mstep_served_signal_handler(int) {
  // async-signal-safe: one write, no locks, no allocation.
  const int fd = g_signal_wake_fd.load();
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
  Server* server = g_signal_server.load();
  if (server != nullptr) server->request_shutdown();
}

std::string exception_message(const std::exception_ptr& e) {
  if (!e) return "";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

std::shared_ptr<const ProblemData> problem_data_from_catalog(
    const std::string& spec) {
  problems::Problem p = problems::ProblemRegistry::instance().create(spec);
  return make_problem_data(std::move(p.matrix), std::move(p.classes),
                           std::move(p.rhs), std::move(p.description));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      admission_(options_.max_inflight > 0
                     ? options_.max_inflight
                     : 2 * static_cast<int>(std::max(
                               1u, std::thread::hardware_concurrency()))) {
  if (options_.port < 0 && options_.unix_path.empty()) {
    throw std::invalid_argument(
        "server needs a TCP port and/or a unix socket path");
  }
  if (::pipe(wake_pipe_) != 0) {
    throw SocketError(std::string("pipe: ") + std::strerror(errno));
  }
}

Server::~Server() {
  // Detach this instance from the process-wide signal plumbing if it is
  // the one installed.
  Server* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  int fd = wake_pipe_[1];
  g_signal_wake_fd.compare_exchange_strong(fd, -1);
  reap_finished_connections(/*join_all=*/true);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Server::bind() {
  if (options_.port >= 0) {
    tcp_listener_ = listen_tcp(options_.host, options_.port);
  }
  if (!options_.unix_path.empty()) {
    unix_listener_ = listen_unix(options_.unix_path);
  }
}

int Server::bound_port() const {
  if (!tcp_listener_.valid()) {
    throw std::logic_error("bound_port: no TCP listener (call bind first)");
  }
  return local_tcp_port(tcp_listener_);
}

void Server::request_shutdown() {
  shutdown_requested_.store(true);
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::install_signal_handlers() {
  g_signal_wake_fd.store(wake_pipe_[1]);
  g_signal_server.store(this);
  struct sigaction sa = {};
  sa.sa_handler = mstep_served_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking calls return EINTR promptly
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void Server::log(const std::string& line) const {
  if (options_.verbose) std::cerr << "mstep_served: " << line << '\n';
}

void Server::run() {
  while (!shutdown_requested_.load()) {
    struct pollfd fds[3];
    int nfds = 0;
    int tcp_slot = -1, unix_slot = -1;
    if (tcp_listener_.valid()) {
      tcp_slot = nfds;
      fds[nfds++] = {tcp_listener_.fd(), POLLIN, 0};
    }
    if (unix_listener_.valid()) {
      unix_slot = nfds;
      fds[nfds++] = {unix_listener_.fd(), POLLIN, 0};
    }
    fds[nfds++] = {wake_pipe_[0], POLLIN, 0};

    const int r = ::poll(fds, static_cast<nfds_t>(nfds), 500);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw SocketError(std::string("poll: ") + std::strerror(errno));
    }
    reap_finished_connections(/*join_all=*/false);
    if (r == 0) continue;
    if (tcp_slot >= 0 && (fds[tcp_slot].revents & POLLIN) != 0) {
      Socket conn = accept_connection(tcp_listener_);
      auto c = std::make_unique<Connection>();
      Connection* raw = c.get();
      c->thread = std::thread([this, raw, s = std::move(conn)]() mutable {
        serve_connection(std::move(s));
        raw->done.store(true);
      });
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(c));
    }
    if (unix_slot >= 0 && (fds[unix_slot].revents & POLLIN) != 0) {
      Socket conn = accept_connection(unix_listener_);
      auto c = std::make_unique<Connection>();
      Connection* raw = c.get();
      c->thread = std::thread([this, raw, s = std::move(conn)]() mutable {
        serve_connection(std::move(s));
        raw->done.store(true);
      });
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(c));
    }
    // wake-pipe bytes are drained below; the flag is what matters.
    if ((fds[nfds - 1].revents & POLLIN) != 0) {
      char buf[64];
      [[maybe_unused]] const ssize_t drained =
          ::read(wake_pipe_[0], buf, sizeof(buf));
    }
  }

  // Drain: stop accepting, let in-flight requests finish, join handlers,
  // flush the final metrics snapshot.
  log("draining: closing listeners, waiting for in-flight solves");
  tcp_listener_.close();
  unix_listener_.close();
  reap_finished_connections(/*join_all=*/true);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  write_final_metrics();
  log("drained; exiting");
}

void Server::reap_finished_connections(bool join_all) {
  std::list<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (join_all || (*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : finished) {
    if (c->thread.joinable()) c->thread.join();
  }
}

void Server::write_final_metrics() {
  if (options_.metrics_out.empty()) return;
  std::ofstream out(options_.metrics_out);
  if (!out) {
    std::cerr << "mstep_served: cannot write metrics snapshot to "
              << options_.metrics_out << '\n';
    return;
  }
  metrics_json().dump(out);
  log("final metrics snapshot written to " + options_.metrics_out);
}

util::Json Server::metrics_json() const {
  return metrics_.to_json(cache_.stats(), admission_.depth(),
                          admission_.max_inflight(), uptime_.seconds());
}

void Server::serve_connection(Socket sock) {
  // Label this handler's trace track; requests solved inline (no pool)
  // put their prepare/solve/iteration spans on this thread.
  static std::atomic<int> conn_serial{0};
  obs::name_thread("conn-" + std::to_string(1 + conn_serial.fetch_add(1)));
  try {
    for (;;) {
      // Poll in short slices so a drain is observed even on an idle
      // keep-alive connection.
      while (!sock.wait_readable(200)) {
        if (shutdown_requested_.load()) return;
      }
      char header[kHeaderBytes];
      if (!sock.read_exact(header, kHeaderBytes)) return;  // peer closed
      FrameHeader fh{MsgType::kErrorReply, 0};
      std::string payload;
      try {
        fh = decode_header(header, options_.max_payload);
      } catch (const ProtocolError& e) {
        metrics_.count_error();
        const std::string body =
            StatusResponse{Retcode::kProtocol, e.what()}.encode();
        sock.write_all(encode_header(MsgType::kErrorReply, body.size()));
        sock.write_all(body);
        return;  // framing is lost; drop the connection
      }
      if (!read_payload(sock, static_cast<std::size_t>(fh.payload_len),
                        payload)) {
        metrics_.count_error();
        log("connection dropped: peer closed the connection mid-frame");
        return;
      }
      if (!handle_frame(sock, fh.type, payload)) return;
    }
  } catch (const SocketError& e) {
    log(std::string("connection dropped: ") + e.what());
  } catch (const std::exception& e) {
    log(std::string("connection handler error: ") + e.what());
  }
}

bool Server::handle_frame(Socket& sock, MsgType type,
                          const std::string& payload) {
  const util::Timer request_timer;
  switch (type) {
    case MsgType::kSolve: {
      metrics_.count_solve();
      SolveResponse response;
      try {
        response = handle_solve(SolveRequest::decode(payload));
      } catch (const ProtocolError& e) {
        metrics_.count_error();
        response.retcode = Retcode::kProtocol;
        response.message = e.what();
      }
      if (response.retcode != Retcode::kOk &&
          response.retcode != Retcode::kBusy) {
        metrics_.count_error();
      }
      const std::string body = response.encode();
      sock.write_all(encode_header(MsgType::kSolveReply, body.size()));
      sock.write_all(body);
      metrics_.record_request_seconds(request_timer.seconds());
      return true;
    }
    case MsgType::kMetrics: {
      metrics_.count_metrics();
      const std::string body =
          StatusResponse{Retcode::kOk, metrics_json().dump_string()}.encode();
      sock.write_all(encode_header(MsgType::kMetricsReply, body.size()));
      sock.write_all(body);
      return true;
    }
    case MsgType::kShutdown: {
      metrics_.count_shutdown();
      const std::string body = StatusResponse{Retcode::kOk, "draining"}.encode();
      sock.write_all(encode_header(MsgType::kShutdownReply, body.size()));
      sock.write_all(body);
      log("shutdown requested over the wire");
      request_shutdown();
      return false;
    }
    default: {
      metrics_.count_error();
      const std::string body =
          StatusResponse{Retcode::kProtocol,
                         "unexpected message type on the server side"}
              .encode();
      sock.write_all(encode_header(MsgType::kErrorReply, body.size()));
      sock.write_all(body);
      return false;
    }
  }
}

SolveResponse Server::handle_solve(SolveRequest request) {
  // Every solve gets an id; every span the request emits (here and down
  // through prepare/pcg/sweep on whatever thread runs them) carries it as
  // the correlation arg, so one request's trace can be cut out of the
  // shared ring buffers.  want_trace opens a per-request enable window —
  // tracing one request never forces it on the whole daemon.
  const std::uint64_t request_id = 1 + request_serial_.fetch_add(1);
  const bool want_trace = request.want_trace;
  const obs::CorrelationScope correlate(request_id);
  std::unique_ptr<obs::EnableScope> enable;
  if (want_trace) enable = std::make_unique<obs::EnableScope>();

  SolveResponse response;
  {
    const obs::Span request_span("request");
    response = handle_solve_inner(std::move(request));
  }
  response.request_id = request_id;
  if (want_trace && response.retcode == Retcode::kOk) {
    response.trace = obs::Tracer::instance().chrome_json(request_id);
  }
  return response;
}

SolveResponse Server::handle_solve_inner(SolveRequest request) {
  SolveResponse response;
  if (shutdown_requested_.load()) {
    response.retcode = Retcode::kShuttingDown;
    response.message = "server is draining";
    return response;
  }
  if (!admission_.try_enter()) {
    metrics_.count_busy();
    response.retcode = Retcode::kBusy;
    response.message = "admission queue full (" +
                       std::to_string(admission_.max_inflight()) +
                       " solves in flight); retry after backoff";
    return response;
  }
  struct AdmissionGuard {
    Admission& admission;
    ~AdmissionGuard() { admission.leave(); }
  } guard{admission_};

  // Config: parse + validate + canonicalize (the canonical string is the
  // cache key's config half).
  solver::SolverConfig config;
  std::string canonical_config;
  try {
    config = solver::SolverConfig::from_string(request.config);
    config.validate();
    canonical_config = config.to_string();
  } catch (const std::exception& e) {
    response.retcode = Retcode::kBadConfig;
    response.message = e.what();
    return response;
  }

  // Matrix source -> fingerprint + lazy loader (only run on cache miss).
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const ProblemData> data;  // pre-built when already loaded
  std::function<std::shared_ptr<const ProblemData>()> loader;
  try {
    switch (request.source) {
      case MatrixSource::kCatalog: {
        bool known = false;
        {
          std::lock_guard<std::mutex> lock(spec_index_mutex_);
          const auto it = spec_index_.find(request.problem);
          if (it != spec_index_.end()) {
            fingerprint = it->second;
            known = true;
          }
        }
        if (!known) {
          data = problem_data_from_catalog(request.problem);
          fingerprint = data->fingerprint;
          std::lock_guard<std::mutex> lock(spec_index_mutex_);
          spec_index_[request.problem] = fingerprint;
        }
        const std::string spec = request.problem;
        const std::uint64_t fp = fingerprint;
        loader = [this, spec, fp, data]() {
          if (data) return data;
          // The spec was seen before but its entry was evicted: reuse the
          // matrix if any other config still holds it, else regenerate.
          if (auto found = cache_.find_matrix(fp)) return found;
          return problem_data_from_catalog(spec);
        };
        break;
      }
      case MatrixSource::kInlineCsr: {
        if (request.matrix.rows() != request.matrix.cols()) {
          response.retcode = Retcode::kBadRequest;
          response.message = "inline matrix is " +
                             std::to_string(request.matrix.rows()) + "x" +
                             std::to_string(request.matrix.cols()) +
                             "; the solver wants square SPD";
          return response;
        }
        data = make_problem_data(std::move(request.matrix), {}, {},
                                 "inline CSR matrix");
        fingerprint = data->fingerprint;
        loader = [data]() { return data; };
        break;
      }
      case MatrixSource::kFingerprint: {
        data = cache_.find_matrix(request.fingerprint);
        if (!data) {
          response.retcode = Retcode::kUnknownMatrix;
          response.message =
              "no resident matrix with fingerprint " +
              fingerprint_hex(request.fingerprint) +
              "; resend it inline or by catalog spec";
          return response;
        }
        fingerprint = request.fingerprint;
        loader = [data]() { return data; };
        break;
      }
    }
  } catch (const std::exception& e) {
    response.retcode = Retcode::kBadProblem;
    response.message = e.what();
    return response;
  }

  // Pipeline: cache hit goes straight to the batch lanes; miss pays
  // generation + preparation once, timed as this request's setup cost.
  PreparedCache::Lookup lookup;
  util::Timer setup_timer;
  try {
    const obs::Span setup_span("setup");
    lookup = cache_.get_or_prepare(fingerprint, config, canonical_config,
                                   loader);
  } catch (const std::exception& e) {
    response.retcode = Retcode::kSolveFailed;
    response.message = e.what();
    return response;
  }
  response.setup_seconds = lookup.hit ? 0.0 : setup_timer.seconds();
  response.cache_hit = lookup.hit;
  response.fingerprint = fingerprint;
  if (lookup.hit) {
    metrics_.count_cache_hit();
    obs::count(obs::Counter::kCacheHits, 1);
  } else {
    metrics_.record_setup_seconds(response.setup_seconds);
  }

  const ProblemData& problem = *lookup.entry->problem;
  const auto n = static_cast<std::size_t>(problem.matrix.rows());

  // Right-hand sides: the request's, or the problem's own, or b = K*1.
  std::vector<Vec> bs = std::move(request.rhs);
  if (bs.empty()) {
    if (!problem.rhs.empty()) {
      bs.push_back(problem.rhs);
    } else {
      Vec ones(n, 1.0);
      Vec b(n);
      problem.matrix.multiply(ones, b);
      bs.push_back(std::move(b));
    }
  }
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (bs[i].size() != n) {
      response.retcode = Retcode::kBadRequest;
      response.message = "right-hand side " + std::to_string(i) + " has " +
                         std::to_string(bs[i].size()) + " entries, matrix has " +
                         std::to_string(n) + " rows";
      return response;
    }
  }

  util::Timer solve_timer;
  solver::BatchReport batch;
  try {
    batch = lookup.entry->prepared.solveMany(
        util::Span<const Vec>(bs.data(), bs.size()));
  } catch (const std::exception& e) {
    response.retcode = Retcode::kSolveFailed;
    response.message = e.what();
    return response;
  }
  response.solve_seconds = solve_timer.seconds();
  metrics_.record_solve_seconds(response.solve_seconds);

  response.format_selected =
      solver::to_string(lookup.entry->prepared.resolved_format());
  response.results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    RhsResult r;
    r.ok = batch.ok(i);
    if (!r.ok) {
      r.error = exception_message(batch.errors[i]);
    } else {
      r.converged = batch.reports[i].converged();
      r.iterations = batch.reports[i].iterations();
      r.final_delta_inf = batch.reports[i].result.final_delta_inf;
      r.solution = std::move(batch.reports[i].solution);
    }
    response.results.push_back(std::move(r));
  }
  log("solve fp=" + fingerprint_hex(fingerprint) +
      (response.cache_hit ? " cache=hit" : " cache=miss") + " nrhs=" +
      std::to_string(response.results.size()));
  return response;
}

}  // namespace mstep::serve
