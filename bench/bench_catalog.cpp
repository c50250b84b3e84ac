// Catalog-sweep bench: every registered problem through every registered
// splitting, via the same driver core mstep_solve uses.
//
// The point is breadth, not depth — one row per (problem, splitting)
// with scale-free fields (iterations, convergence, error vs the known
// solution) that a perf gate can pin, plus wall seconds for context.
// Emits machine-readable JSON (--out=BENCH_catalog.json), uploaded as a
// CI artifact.  Exit 1 when any combination fails to converge or misses
// the known solution by more than --error-cap.
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "problems/driver.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace {

using namespace mstep;

/// Bench-sized spec per catalog problem.  The test suite asserts the
/// analogous map there covers the registry exactly; here an unlisted
/// problem falls back to its defaults.
std::map<std::string, std::string> bench_specs(bool quick) {
  if (quick) {
    return {{"poisson2d", "poisson2d:n=24"}, {"poisson3d", "poisson3d:n=8"},
            {"aniso2d", "aniso2d:n=24"},     {"convdiff", "convdiff:n=24"},
            {"randspd", "randspd:n=1000"},   {"stencil9", "stencil9:n=20"},
            {"femplate", "femplate:a=12"},   {"cyberplate", "cyberplate:a=12"}};
  }
  return {{"poisson2d", "poisson2d:n=64"}, {"poisson3d", "poisson3d:n=16"},
          {"aniso2d", "aniso2d:n=64"},     {"convdiff", "convdiff:n=64"},
          {"randspd", "randspd:n=8000"},   {"stencil9", "stencil9:n=48"},
          {"femplate", "femplate:a=24"},   {"cyberplate", "cyberplate:a=24"}};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv, {"quick", "m", "tol", "threads", "format",
                                     "out", "error-cap"});
    const bool quick = cli.has("quick");
    const int m = cli.get_int("m", 2);
    const double tol = cli.get_double("tol", 1e-8);
    const int threads = cli.get_int("threads", 0);
    // csr | dia | sell | auto — a parse alias: every solve runs on the one
    // run storage, which the per-row "format_selected" records.
    const solver::MatrixFormat format =
        solver::matrix_format_from_string(cli.get("format", "csr"));
    const double error_cap = cli.get_double("error-cap", 1e-5);
    const std::string out_path = cli.get("out", "BENCH_catalog.json");

    const auto specs = bench_specs(quick);
    const auto splittings = solver::SplittingRegistry::instance().names();

    std::cout << "== Problem-catalog sweep ==\n"
              << specs.size() << " problems x " << splittings.size()
              << " splittings, m = " << m << ", tol = " << tol << "\n\n";

    util::Json rows = util::Json::array();
    bool all_ok = true;
    for (const auto& name : problems::ProblemRegistry::instance().names()) {
      const auto it = specs.find(name);
      const std::string spec = it != specs.end() ? it->second : name;
      // Generate once; the splitting sweep reuses the resolved system.
      const problems::Problem problem =
          problems::ProblemRegistry::instance().create(spec);

      util::Table t({"splitting", "iterations", "wall (s)", "error vs u*",
                     "converged"});
      for (const auto& splitting : splittings) {
        solver::SolverConfig config;
        config.splitting = splitting;
        config.steps = m;
        config.tolerance = tol;
        config.execution.threads = threads;
        config.format = format;

        const auto r = problems::run(problem, config);
        const bool has_error = r.has_exact && std::isfinite(r.error_vs_exact);
        const bool ok = r.all_converged() &&
                        (!has_error || r.error_vs_exact <= error_cap);
        all_ok = all_ok && ok;

        util::Json row = util::Json::object();
        row.set("problem", r.problem_name)
            .set("splitting", splitting)
            .set("n", r.n)
            .set("nnz", r.nnz)
            .set("m", m)
            .set("iterations", r.batch.total_iterations())
            .set("converged", r.all_converged())
            .set("error_vs_exact",
                 has_error ? util::Json(r.error_vs_exact) : util::Json())
            .set("dia_friendly", r.dia_friendly)
            .set("format_selected", r.format_selected)
            .set("wall_seconds", r.batch.wall_seconds)
            .set("setup_seconds", r.setup_seconds);
        rows.push(std::move(row));

        t.add_row({splitting,
                   util::Table::integer(r.batch.total_iterations()),
                   util::Table::num(r.batch.wall_seconds, 3),
                   has_error ? util::Table::num(r.error_vs_exact, 2) : "-",
                   ok ? "yes" : "NO"});
      }
      t.print(std::cout, problem.spec.to_string());
      std::cout << '\n';
    }

    std::ofstream json(out_path);
    rows.dump(json);
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
      std::cerr << "catalog sweep: a combination failed to converge or "
                   "missed the known solution!\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_catalog: " << e.what() << '\n';
    return 2;
  }
}
