// mstep_served — the solver-as-a-service daemon.
//
//   mstep_served --unix=/tmp/mstep.sock --cache-mb=256 &
//   mstep_served --port=7427 --max-inflight=8 --metrics-out=metrics.json
//   mstep_served --port=0 --verbose        # ephemeral port, printed
//
// A long-running server speaking the MSV2 framed protocol
// (docs/protocol.md) over TCP and/or a Unix-domain socket.  Solve
// requests flow through a prepared-pipeline cache keyed by matrix
// fingerprint x solver config, so repeat traffic skips the expensive
// colouring/permutation/alpha setup; an admission gate sheds overload
// with the retryable `busy` retcode.  SIGINT/SIGTERM drain in-flight
// solves, flush a final metrics snapshot (--metrics-out), and exit 0.
//
// Talk to it with mstep_request (one-shot client CLI) or serve::Client
// (the library used by bench_served and the tests).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

int print_help() {
  std::cout <<
      "mstep_served — solver-as-a-service daemon (MSV2 protocol)\n"
      "\n"
      "usage:\n"
      "  mstep_served [--port=<p>] [--unix=<path>] [options]\n"
      "\n"
      "endpoints (at least one):\n"
      "  --port=<p>         listen on TCP <host>:<p>; 0 binds an ephemeral\n"
      "                     port (printed on startup)\n"
      "  --host=<addr>      TCP bind address (default 127.0.0.1)\n"
      "  --unix=<path>      listen on a Unix-domain socket at <path>\n"
      "\n"
      "service options:\n"
      "  --cache-mb=<M>     prepared-pipeline cache budget in MiB\n"
      "                     (default 256)\n"
      "  --max-inflight=<N> concurrent solves before `busy` shedding\n"
      "                     (default 2 x hardware threads)\n"
      "  --metrics-out=<f>  write the final metrics snapshot here on\n"
      "                     graceful shutdown\n"
      "  --trace=<f>        trace the whole daemon lifetime and write the\n"
      "                     Chrome trace-event JSON here on graceful\n"
      "                     shutdown (per-request tracing needs no server\n"
      "                     flag: mstep_request --trace asks per request)\n"
      "  --verbose          per-request log lines on stderr\n"
      "  --help             this text\n"
      "\n"
      "Shutdown: SIGINT/SIGTERM or an mstep_request --shutdown drain\n"
      "in-flight solves, flush metrics, exit 0.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mstep;
  try {
    const util::Cli cli(argc, argv,
                        {"port", "host", "unix", "cache-mb", "max-inflight",
                         "metrics-out", "trace", "verbose", "help"});
    if (cli.has("help")) return print_help();

    serve::ServerOptions options;
    options.port = cli.get_int("port", -1);
    options.host = cli.get("host", "127.0.0.1");
    options.unix_path = cli.get("unix", "");
    options.cache_bytes =
        static_cast<std::size_t>(cli.get_int("cache-mb", 256)) << 20;
    options.max_inflight = cli.get_int("max-inflight", 0);
    options.metrics_out = cli.get("metrics-out", "");
    options.verbose = cli.has("verbose");
    if (options.port < 0 && options.unix_path.empty()) {
      std::cerr << "mstep_served: give --port and/or --unix (see --help)\n";
      return 2;
    }

    serve::Server server(options);
    server.bind();
    server.install_signal_handlers();
    if (options.port >= 0) {
      std::cout << "mstep_served: listening on " << options.host << ":"
                << server.bound_port() << " (tcp)\n";
    }
    if (!options.unix_path.empty()) {
      std::cout << "mstep_served: listening on " << options.unix_path
                << " (unix)\n";
    }
    const std::string trace_path = cli.get("trace", "");
    if (!trace_path.empty()) {
      obs::Tracer::instance().set_enabled(true);
      obs::name_thread("accept-loop");
    }
    std::cout.flush();
    server.run();
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "mstep_served: cannot write " << trace_path << '\n';
        return 2;
      }
      out << obs::Tracer::instance().chrome_json() << '\n';
      std::cout << "mstep_served: wrote trace " << trace_path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mstep_served: " << e.what() << '\n';
    return 2;
  }
}
