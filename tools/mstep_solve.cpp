// mstep_solve — the one driver that runs ANY problem through the full
// m-step pipeline.
//
//   mstep_solve --problem=poisson3d:n=32 --splitting=ssor --m=2
//               --threads=4 --batch=8 --out=report.json
//   mstep_solve --matrix=foo.mtx.gz --rhs=foo_b.mtx --splitting=jacobi
//   mstep_solve --list
//
// The system comes from the problem catalog (--problem=<spec>) or a
// Matrix Market file (--matrix, optional --rhs; .mtx.gz is auto-detected
// and streamed; without --rhs the driver manufactures b = K*1 so the
// error is still measurable).  Every SolverConfig flag applies
// (--splitting/--m/--params/--ordering/--threads/--batch/...; --format
// still parses and is ignored), --nrhs adds deterministic extra
// right-hand sides for the batch engine, and --out writes the JSON report
// tools/check_report.py validates in CI.  Exit status: 0 all solved and
// converged, 1 otherwise, 2 on a usage/config/file error.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/matrix_market.hpp"
#include "obs/trace.hpp"
#include "problems/driver.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace mstep;

int list_registries() {
  util::Table problems({"problem", "description"});
  auto& reg = problems::ProblemRegistry::instance();
  for (const auto& name : reg.names()) {
    problems.add_row({name, reg.at(name).description});
  }
  problems.print(std::cout, "problem catalog (--problem=<name>[:key=value...])");

  std::cout << '\n';
  util::Table splittings({"splitting"});
  for (const auto& name : solver::SplittingRegistry::instance().names()) {
    splittings.add_row({name});
  }
  splittings.print(std::cout, "splittings (--splitting)");

  std::cout << '\n';
  util::Table params({"strategy"});
  for (const auto& name : solver::ParamStrategyRegistry::instance().names()) {
    params.add_row({name});
  }
  params.print(std::cout, "parameter strategies (--params)");
  return 0;
}

// Every flag the driver accepts, one line each — tools/check_docs.py
// audits that each mstep_solve flag the docs mention appears here.
int print_help() {
  std::cout <<
      "mstep_solve — run any problem through the m-step PCG pipeline\n"
      "\n"
      "usage:\n"
      "  mstep_solve --problem=<spec> [solver flags] [--out=report.json]\n"
      "  mstep_solve --matrix=<file.mtx[.gz]> [--rhs=<file.mtx[.gz]>] ...\n"
      "  mstep_solve --list | --help\n"
      "\n"
      "input (exactly one of):\n"
      "  --problem=<spec>   catalog spec, e.g. poisson3d:n=32 (see --list)\n"
      "  --matrix=<path>    Matrix Market file; gzip (.mtx.gz) is\n"
      "                     auto-detected and streamed\n"
      "\n"
      "input options:\n"
      "  --rhs=<path>       Matrix Market vector file (only with --matrix;\n"
      "                     default: manufactured b = K*1)\n"
      "  --nrhs=<K>         total right-hand sides; extras are deterministic\n"
      "                     pseudo-random vectors for the batch engine (default 1)\n"
      "\n"
      "solver configuration (SolverConfig flags):\n"
      "  --splitting=<spec> splitting key with options, e.g. ssor:omega=1.2\n"
      "                     (default ssor)\n"
      "  --m=<int>          preconditioner steps; 0 = plain CG (default 4)\n"
      "  --params=<key>     parameter strategy: ones | lsq | minmax (default lsq)\n"
      "  --ordering=<o>     natural | multicolor (default multicolor)\n"
      "  --format=<f>       csr | dia | sell | auto — accepted for old command\n"
      "                     lines and ignored: every solve runs on one\n"
      "                     storage, by diagonals\n"
      "  --stop=<rule>      delta_inf | residual2 (default delta_inf)\n"
      "  --tol=<t>          stopping tolerance (default 1e-06)\n"
      "  --maxit=<n>        iteration cap (default 20000)\n"
      "  --threads=<N>      threads; each colour block is cut into N strips\n"
      "                     (one strip per thread) that the multicolour\n"
      "                     sweep, the products and the vector ops run\n"
      "                     on, sharing one iterate (other splittings'\n"
      "                     preconditioners stay serial); systems under 2048\n"
      "                     rows stay serial; bitwise the serial result for\n"
      "                     any N; 0 = serial (default 0); at most 256\n"
      "  --shards=<N>       alias of --threads; the wider of the two wins\n"
      "  --batch=<N>        concurrent right-hand-side lanes, each solving up to 4\n"
      "                     at once; 0 = one per thread, capped at the\n"
      "                     hardware width (default 0); at most 256\n"
      "\n"
      "Each solver flag parses exactly like its key=value in a config string.\n"
      "\n"
      "output:\n"
      "  --out=<path>       write the JSON report (schema: docs/file-formats.md,\n"
      "                     validated by tools/check_report.py)\n"
      "  --trace=<path>     record a Chrome trace-event JSON profile of this\n"
      "                     run (load in Perfetto / chrome://tracing; spans:\n"
      "                     prepare, solve, iteration, sweep — one track per\n"
      "                     thread; schema checked by tools/check_trace.py).\n"
      "                     MSTEP_TRACE=on enables recording without a file\n"
      "                     (see docs/observability.md)\n"
      "  --export-matrix=<path>  write the assembled system matrix in canonical\n"
      "                     Matrix Market form (symmetric storage, .gz\n"
      "                     compresses) — byte-stable, so sha256 pins it;\n"
      "                     the corpus cache (tools/fetch_corpus.py) is\n"
      "                     materialized this way\n"
      "  --export-only      with --export-matrix: skip the solve and exit 0\n"
      "                     after writing the matrix\n"
      "  --list             print registered problems/splittings/strategies\n"
      "  --help             this text\n"
      "\n"
      "exit status: 0 all solved and converged, 1 otherwise, 2 on a\n"
      "usage/config/file error.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> allowed = {"problem", "matrix", "rhs",
                                        "nrhs",    "out",    "list",
                                        "help",    "export-matrix",
                                        "export-only", "trace"};
    for (const auto& f : solver::SolverConfig::cli_flags()) {
      allowed.push_back(f);
    }
    const util::Cli cli(argc, argv, std::move(allowed));
    if (cli.has("help")) return print_help();
    if (cli.has("list")) return list_registries();

    const std::string trace_path = cli.get("trace", "");
    if (!trace_path.empty()) {
      // Turn the tracer on before any pipeline work so the prepare spans
      // land in the ring buffers too.  Tracing never changes solution
      // bits — only timers and thread-local buffers.
      obs::Tracer::instance().set_enabled(true);
      obs::name_thread("main");
    }

    problems::DriverInput input;
    input.problem = cli.get("problem", "");
    input.matrix_path = cli.get("matrix", "");
    input.rhs_path = cli.get("rhs", "");
    input.nrhs = cli.get_int("nrhs", 1);
    const solver::SolverConfig config = solver::SolverConfig::from_cli(cli);

    const std::string export_path = cli.get("export-matrix", "");
    if (cli.has("export-only") && export_path.empty()) {
      std::cerr << "mstep_solve: --export-only needs --export-matrix\n";
      return 2;
    }
    if (!export_path.empty()) {
      const problems::Problem p = problems::resolve_problem(input);
      io::MmWriteOptions options;
      // SPD operators export in symmetric storage — the layout the
      // SuiteSparse collection uses — and the writer's canonical bytes
      // make the file's sha256 a stable fingerprint of the operator.
      // Generators whose assembly order leaves K(i,j) and K(j,i) a
      // rounding apart are not *bitwise* symmetric; they fall back to
      // general storage (still canonical, still byte-stable).
      options.symmetry = io::MmSymmetry::kSymmetric;
      options.comment = "mstep export: " + p.spec.to_string();
      try {
        io::write_matrix_market(export_path, p.matrix, options);
      } catch (const std::invalid_argument&) {
        options.symmetry = io::MmSymmetry::kGeneral;
        io::write_matrix_market(export_path, p.matrix, options);
      }
      std::cout << "exported " << p.spec.to_string() << " (n = "
                << p.matrix.rows() << ", nnz = " << p.matrix.nnz()
                << ") to " << export_path << '\n';
      if (cli.has("export-only")) return 0;
    }

    const problems::DriverResult r = problems::run(input, config);

    std::cout << r.problem_name << " — " << r.description << '\n'
              << "N = " << r.n << ", nnz = " << r.nnz << ", bandwidth = "
              << r.bandwidth << ", " << r.nonzero_diagonals
              << " nonzero diagonals"
              << "\nconfig: " << r.config.to_string() << '\n';

    util::Table t({"rhs", "iterations", "final |du|_inf", "status"});
    for (std::size_t i = 0; i < r.batch.size(); ++i) {
      if (r.batch.ok(i)) {
        t.add_row({util::Table::integer(static_cast<long long>(i)),
                   util::Table::integer(r.batch.reports[i].iterations()),
                   util::Table::num(r.batch.reports[i].result.final_delta_inf,
                                    2),
                   r.batch.reports[i].converged() ? "converged" : "NOT CONVERGED"});
      } else {
        t.add_row({util::Table::integer(static_cast<long long>(i)), "-", "-",
                   "ERROR: " + r.error_messages[i]});
      }
    }
    t.print(std::cout, std::to_string(r.batch.size()) +
                           " right-hand side(s), concurrency = " +
                           std::to_string(r.batch.concurrency));
    if (r.has_exact) {
      std::cout << "error vs known solution: |u - u*|_inf / |u*|_inf = "
                << r.error_vs_exact << '\n';
    }
    std::cout << "setup " << r.setup_seconds << " s, solve "
              << r.batch.wall_seconds << " s ("
              << r.batch.solves_per_second() << " RHS/s)\n";

    const std::string out_path = cli.get("out", "");
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "mstep_solve: cannot write " << out_path << '\n';
        return 2;
      }
      problems::report_json(r).dump(out);
      std::cout << "wrote " << out_path << '\n';
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "mstep_solve: cannot write " << trace_path << '\n';
        return 2;
      }
      out << obs::Tracer::instance().chrome_json() << '\n';
      std::cout << "wrote trace " << trace_path << '\n';
    }
    return r.all_converged() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mstep_solve: " << e.what() << '\n';
    return 2;
  }
}
