// mstep_request — one-shot client for the mstep_served daemon.
//
//   mstep_request --connect=unix:/tmp/mstep.sock --problem=poisson3d:n=16
//       [--splitting=ssor --m=2 --out=reply.json]
//   mstep_request --connect=127.0.0.1:7427 --matrix=foo.mtx --nrhs=4
//   mstep_request --connect=unix:/tmp/mstep.sock --metrics
//   mstep_request --connect=unix:/tmp/mstep.sock --shutdown
//
// Sends one solve (catalog spec, Matrix Market file shipped as inline
// CSR, or a bare --fingerprint for a matrix the daemon already holds),
// a --metrics query, or a --shutdown drain.  Busy responses are retried
// with exponential backoff (--retries/--backoff-ms).  --expect-cache
// turns the reply's cache verdict into the exit status — how CI proves
// the second identical request hit the prepared-pipeline cache.
// Exit status: 0 solved and converged (or metrics/shutdown ok), 1 failed
// retcode / non-convergence / --expect-cache mismatch, 2 usage or
// transport error.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/matrix_market.hpp"
#include "serve/client.hpp"
#include "serve/hash.hpp"
#include "solver/config.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mstep;

int print_help() {
  std::cout <<
      "mstep_request — client for the mstep_served daemon\n"
      "\n"
      "usage:\n"
      "  mstep_request --connect=<ep> --problem=<spec> [solver flags]\n"
      "  mstep_request --connect=<ep> --matrix=<file.mtx[.gz]> [--rhs=<f>]\n"
      "  mstep_request --connect=<ep> --fingerprint=<hex>\n"
      "  mstep_request --connect=<ep> --metrics | --shutdown\n"
      "\n"
      "connection:\n"
      "  --connect=<ep>     unix:<path> or <host>:<port> (required)\n"
      "  --timeout-ms=<t>   reply wait limit; -1 = wait forever (default)\n"
      "  --retries=<N>      attempts while the server answers busy\n"
      "                     (default 5)\n"
      "  --backoff-ms=<t>   initial busy backoff, doubling (default 100)\n"
      "\n"
      "request (exactly one of):\n"
      "  --problem=<spec>   catalog spec solved server-side\n"
      "  --matrix=<path>    Matrix Market file, shipped as inline CSR\n"
      "  --fingerprint=<h>  matrix already resident on the daemon (hex,\n"
      "                     from a previous reply)\n"
      "  --metrics          fetch the metrics JSON document\n"
      "  --shutdown         ask the daemon to drain and exit\n"
      "\n"
      "request options:\n"
      "  --rhs=<path>       Matrix Market vector (with --matrix; default:\n"
      "                     manufactured b = K*1)\n"
      "  --nrhs=<K>         total right-hand sides (--matrix only; extras\n"
      "                     are deterministic pseudo-random vectors)\n"
      "  (all mstep_solve solver flags: --splitting/--m/--params/\n"
      "   --ordering/--format/--stop/--tol/--maxit/--threads/--batch)\n"
      "\n"
      "output:\n"
      "  --out=<path>       write the JSON reply report (or, with\n"
      "                     --metrics, the metrics document)\n"
      "  --trace=<path>     ask the daemon to trace this request and write\n"
      "                     the returned Chrome trace-event JSON (spans\n"
      "                     carry the reply's request_id as correlation;\n"
      "                     load in Perfetto, validate with\n"
      "                     tools/check_trace.py)\n"
      "  --expect-cache=<v> exit 1 unless the reply's cache verdict is\n"
      "                     <v> (hit | miss)\n"
      "  --help             this text\n"
      "\n"
      "exit status: 0 ok and converged, 1 failed retcode / not converged /\n"
      "cache mismatch, 2 usage or transport error.\n";
  return 0;
}

bool write_out(const std::string& path, const util::Json& j) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "mstep_request: cannot write " << path << '\n';
    return false;
  }
  j.dump(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> allowed = {
        "connect", "timeout-ms", "retries",     "backoff-ms",
        "problem", "matrix",     "rhs",         "fingerprint",
        "nrhs",    "metrics",    "shutdown",    "out",
        "expect-cache", "trace", "help"};
    for (const auto& f : solver::SolverConfig::cli_flags()) {
      allowed.push_back(f);
    }
    const util::Cli cli(argc, argv, std::move(allowed));
    if (cli.has("help")) return print_help();

    const std::string endpoint = cli.get("connect", "");
    if (endpoint.empty()) {
      std::cerr << "mstep_request: --connect=<endpoint> is required\n";
      return 2;
    }
    serve::Client client = serve::Client::connect(endpoint);
    client.set_timeout_ms(cli.get_int("timeout-ms", -1));
    const std::string out_path = cli.get("out", "");

    if (cli.has("metrics")) {
      const serve::StatusResponse status = client.metrics();
      if (status.retcode != serve::Retcode::kOk) {
        std::cerr << "mstep_request: metrics failed: "
                  << serve::to_string(status.retcode) << ": " << status.body
                  << '\n';
        return 1;
      }
      std::cout << status.body;
      if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
          std::cerr << "mstep_request: cannot write " << out_path << '\n';
          return 2;
        }
        out << status.body;
      }
      return 0;
    }

    if (cli.has("shutdown")) {
      const serve::StatusResponse status = client.shutdown();
      std::cout << "mstep_request: shutdown "
                << serve::to_string(status.retcode) << " (" << status.body
                << ")\n";
      return status.retcode == serve::Retcode::kOk ? 0 : 1;
    }

    // Build the solve request.
    serve::SolveRequest request;
    const std::string problem = cli.get("problem", "");
    const std::string matrix_path = cli.get("matrix", "");
    const std::string fingerprint = cli.get("fingerprint", "");
    const int sources = (problem.empty() ? 0 : 1) +
                        (matrix_path.empty() ? 0 : 1) +
                        (fingerprint.empty() ? 0 : 1);
    if (sources != 1) {
      std::cerr << "mstep_request: give exactly one of --problem, --matrix, "
                   "--fingerprint (or --metrics / --shutdown)\n";
      return 2;
    }
    const int nrhs = cli.get_int("nrhs", 1);
    if (nrhs < 1) {
      std::cerr << "mstep_request: --nrhs must be >= 1\n";
      return 2;
    }
    if (!problem.empty()) {
      request.source = serve::MatrixSource::kCatalog;
      request.problem = problem;
      // No RHS payload: the daemon uses the problem's own right-hand side.
      if (nrhs != 1) {
        std::cerr << "mstep_request: --nrhs needs the matrix dimension "
                     "client-side; use it with --matrix\n";
        return 2;
      }
    } else if (!matrix_path.empty()) {
      request.source = serve::MatrixSource::kInlineCsr;
      request.matrix = io::read_matrix_market(matrix_path).matrix;
      const auto n = static_cast<std::size_t>(request.matrix.rows());
      Vec first;
      const std::string rhs_path = cli.get("rhs", "");
      if (!rhs_path.empty()) {
        first = io::read_vector(rhs_path);
      } else {
        const Vec ones(n, 1.0);
        first.resize(n);
        request.matrix.multiply(ones, first);
      }
      request.rhs.push_back(std::move(first));
      util::Rng rng(0x6d737465);  // the driver's seed: same extra RHSs
      for (int j = 1; j < nrhs; ++j) {
        request.rhs.push_back(rng.uniform_vector(n));
      }
    } else {
      request.source = serve::MatrixSource::kFingerprint;
      request.fingerprint = serve::fingerprint_from_hex(fingerprint);
      if (nrhs != 1) {
        std::cerr << "mstep_request: --nrhs needs the matrix dimension "
                     "client-side; use it with --matrix\n";
        return 2;
      }
    }
    request.config = solver::SolverConfig::from_cli(cli).to_string();
    const std::string trace_path = cli.get("trace", "");
    request.want_trace = !trace_path.empty();

    util::Timer e2e;
    int attempts = 0;
    const serve::SolveResponse reply = client.solve_with_retry(
        request, cli.get_int("retries", 5), cli.get_int("backoff-ms", 100),
        &attempts);
    const double e2e_seconds = e2e.seconds();

    const std::string cache_verdict =
        reply.retcode != serve::Retcode::kOk ? ""
        : reply.cache_hit                    ? "hit"
                                             : "miss";
    if (reply.retcode != serve::Retcode::kOk) {
      std::cerr << "mstep_request: solve failed: "
                << serve::to_string(reply.retcode) << ": " << reply.message
                << '\n';
    } else {
      std::cout << "config: " << request.config
                << "\nfingerprint: " << serve::fingerprint_hex(reply.fingerprint)
                << "\ncache: " << cache_verdict << '\n';
      util::Table t({"rhs", "iterations", "final |du|_inf", "status"});
      for (std::size_t i = 0; i < reply.results.size(); ++i) {
        const serve::RhsResult& r = reply.results[i];
        if (r.ok) {
          t.add_row({util::Table::integer(static_cast<long long>(i)),
                     util::Table::integer(r.iterations),
                     util::Table::num(r.final_delta_inf, 2),
                     r.converged ? "converged" : "NOT CONVERGED"});
        } else {
          t.add_row({util::Table::integer(static_cast<long long>(i)), "-",
                     "-", "ERROR: " + r.error});
        }
      }
      t.print(std::cout,
              std::to_string(reply.results.size()) + " right-hand side(s)");
      std::cout << "setup " << reply.setup_seconds << " s, solve "
                << reply.solve_seconds << " s, end-to-end " << e2e_seconds
                << " s, attempts " << attempts << ", request id "
                << reply.request_id << '\n';
    }

    if (!out_path.empty()) {
      util::Json iterations = util::Json::array();
      util::Json delta_inf = util::Json::array();
      util::Json errors = util::Json::array();
      for (const serve::RhsResult& r : reply.results) {
        iterations.push(r.ok ? util::Json(r.iterations) : util::Json());
        delta_inf.push(r.ok ? util::Json(r.final_delta_inf) : util::Json());
        errors.push(r.error);
      }
      util::Json j = util::Json::object();
      j.set("tool", "mstep_request")
          .set("endpoint", endpoint)
          .set("retcode", static_cast<long long>(reply.retcode))
          .set("retcode_name", serve::to_string(reply.retcode))
          .set("message", reply.message)
          .set("cache", cache_verdict)
          .set("fingerprint", serve::fingerprint_hex(reply.fingerprint))
          .set("config", request.config)
          .set("nrhs", static_cast<long long>(reply.results.size()))
          .set("converged", reply.all_converged())
          .set("iterations", std::move(iterations))
          .set("final_delta_inf", std::move(delta_inf))
          .set("rhs_errors", std::move(errors))
          .set("setup_seconds", reply.setup_seconds)
          .set("solve_seconds", reply.solve_seconds)
          .set("e2e_seconds", e2e_seconds)
          .set("attempts", attempts)
          .set("request_id", static_cast<long long>(reply.request_id));
      if (!write_out(out_path, j)) return 2;
      std::cout << "wrote " << out_path << '\n';
    }

    if (!trace_path.empty()) {
      if (reply.trace.empty()) {
        std::cerr << "mstep_request: server returned no trace\n";
        return 1;
      }
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "mstep_request: cannot write " << trace_path << '\n';
        return 2;
      }
      out << reply.trace << '\n';
      std::cout << "wrote trace " << trace_path << " (request id "
                << reply.request_id << ")\n";
    }

    const std::string expect = cli.get("expect-cache", "");
    if (!expect.empty() && expect != cache_verdict) {
      std::cerr << "mstep_request: expected cache=" << expect << ", got "
                << (cache_verdict.empty() ? "no solve" : cache_verdict)
                << '\n';
      return 1;
    }
    return reply.all_converged() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mstep_request: " << e.what() << '\n';
    return 2;
  }
}
