// Vector-machine example: the CYBER 203/205 timing model at work.
//
// Prints the pipeline efficiency curve the model is calibrated to
// (Section 3.1: ~90% at n=1000, ~50% at n=100, ~10% at n=10), then times
// one plate solve and decomposes the modelled seconds by kernel class —
// showing why the method exists: inner products cost far more than their
// flop count suggests, and the m-step preconditioner buys iterations with
// reduction-free local work.  The solves run through the Solver facade
// with the CyberModel attached as the kernel log, on the DIA operator the
// machine's SpMV actually uses.
#include <iostream>

#include "color/coloring.hpp"
#include "cyber/vector_model.hpp"
#include "fem/plane_stress.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mstep;
  util::Cli cli(argc, argv, {"a", "m"});
  const int a = cli.get_int("a", 41);
  const int m = cli.get_int("m", 4);

  const cyber::CyberParams params;
  std::cout << "CYBER 203/205 pipeline model: t(n) = tau (n + n_half), "
               "n_half = " << params.n_half << "\n\n";
  {
    util::Table t({"vector length", "efficiency"});
    for (int n : {10, 50, 100, 500, 1000, 5000}) {
      t.add_row({util::Table::integer(n),
                 util::Table::fixed(100.0 * params.efficiency(n), 1) + "%"});
    }
    t.print(std::cout, "efficiency curve (paper quotes 10%/50%/90%)");
  }

  const fem::PlateMesh mesh = fem::PlateMesh::unit_square(a);
  const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                              fem::EdgeLoad{1.0, 0.0});
  const auto classes = color::six_color_classes(mesh);

  solver::SolverConfig config;
  config.tolerance = 1e-4;

  auto decompose = [&](const char* name, int steps) {
    cyber::CyberModel model(params);
    auto cfg = config;
    cfg.steps = steps;
    const auto report = solver::Solver::from_config(cfg).solve(
        sys.stiffness, sys.load, classes, &model);
    std::cout << name << ": " << report.iterations()
              << " iterations, modelled " << model.seconds() << " s\n"
              << "  inner products: " << model.dot_seconds() << " s ("
              << 100.0 * model.dot_seconds() / model.seconds() << "%)\n"
              << "  SpMV (by diagonals): " << model.spmv_seconds() << " s\n"
              << "  other vector ops: " << model.vector_seconds() << " s\n";
  };

  std::cout << "\nplate a=" << a << " (N=" << sys.stiffness.rows() << "):\n";
  decompose("plain CG       ", 0);
  decompose(("m-step SSOR m=" + std::to_string(m)).c_str(), m);
  return 0;
}
