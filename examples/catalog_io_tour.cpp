// Catalog + Matrix Market tour: generate a problem from a spec string,
// export it to .mtx files, read them back, and solve both through the
// same facade — the full interchange loop a real workflow uses (dump a
// production system to files, rerun it anywhere).
//
//   catalog_io_tour --problem=aniso2d:n=24:ratio=50 --dir=/tmp
//
// Prints the registry, the round-tripped system's stats (the reread
// matrix is entry-identical), and the two solve reports, which must
// match iteration-for-iteration.
#include <iostream>
#include <string>

#include "io/matrix_market.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mstep;
  util::Cli cli(argc, argv, {"problem", "dir", "m"});
  const std::string spec = cli.get("problem", "aniso2d:n=24:ratio=50");
  const std::string dir = cli.get("dir", ".");
  const int m = cli.get_int("m", 2);

  auto& registry = problems::ProblemRegistry::instance();
  util::Table t({"problem", "description"});
  for (const auto& name : registry.names()) {
    t.add_row({name, registry.at(name).description});
  }
  t.print(std::cout, "registered problem generators");

  // 1. Generate from the spec string.
  const problems::Problem problem = registry.create(spec);
  std::cout << "\n" << problem.spec.to_string() << " — "
            << problem.description << "\nN = " << problem.matrix.rows()
            << ", nnz = " << problem.matrix.nnz()
            << ", bandwidth = " << problem.matrix.bandwidth() << "\n";

  // 2. Export matrix + RHS as Matrix Market files (symmetric storage
  // halves the file when the property holds exactly).
  const std::string matrix_path = dir + "/catalog_tour.mtx";
  const std::string rhs_path = dir + "/catalog_tour_b.mtx";
  io::MmWriteOptions options;
  options.symmetry = problem.matrix.symmetry_error() == 0.0
                         ? io::MmSymmetry::kSymmetric
                         : io::MmSymmetry::kGeneral;
  options.comment = "generated by catalog_io_tour from " + spec;
  io::write_matrix_market(matrix_path, problem.matrix, options);
  io::write_vector(rhs_path, problem.rhs, "right-hand side of " + spec);
  std::cout << "wrote " << matrix_path << " ("
            << io::to_string(options.symmetry) << " storage) and "
            << rhs_path << "\n";

  // 3. Read back and solve both systems with one config.
  const io::MmMatrix reread = io::read_matrix_market(matrix_path);
  const Vec rhs = io::read_vector(rhs_path);
  std::cout << "reread: " << reread.matrix.nnz() << " nonzeros, entries "
            << (reread.matrix.values() == problem.matrix.values()
                    ? "identical"
                    : "DIFFER")
            << "\n\n";

  solver::SolverConfig config;
  config.steps = m;
  config.tolerance = 1e-10;
  const auto solver = solver::Solver::from_config(config);
  // Same classes for both solves (the reread matrix is the same system),
  // so the iteration counts must agree exactly.
  const bool cc = problem.has_classes();
  const auto direct =
      cc ? solver.solve(problem.matrix, problem.rhs, problem.classes)
         : solver.solve(problem.matrix, problem.rhs);
  const auto via_files = cc ? solver.solve(reread.matrix, rhs, problem.classes)
                            : solver.solve(reread.matrix, rhs);
  std::cout << "direct solve:    " << direct.iterations()
            << " iterations, converged = " << direct.converged() << "\n"
            << "via .mtx files:  " << via_files.iterations()
            << " iterations, converged = " << via_files.converged() << "\n";
  return direct.converged() && via_files.converged() &&
                 direct.iterations() == via_files.iterations()
             ? 0
             : 1;
}
