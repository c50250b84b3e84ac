// Self-tests of the benchmark's own pieces; exits non-zero on a failure.
//
//   perfbench_selftest      (or: python3 perfbench/run.py --selftest)
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "problems/problem.hpp"
#include "solver/config.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using mstep::problems::ProblemRegistry;
using mstep::solver::Solver;
using mstep::solver::SolverConfig;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

/// A decorated solve is the untraced one, bit for bit, on the serial
/// pipeline and on the 4-shard pipeline.  The shards run on a 1-thread
/// pool: on systems this small a wider pool trips the open ThreadPool
/// lifetime race, and the bits do not depend on the width (test_shard).
void decorated_solves_are_bitwise(const std::string& spec,
                                  const std::string& config_text) {
  const auto problem = ProblemRegistry::instance().create(spec);
  const SolverConfig config = SolverConfig::from_string(config_text);
  const Solver solver = Solver::from_config(config);
  const auto prepared = solver.prepare(problem.matrix, problem.classes);
  const Vec& f = problem.rhs.empty() ? Vec(problem.matrix.rows(), 1.0)
                                     : problem.rhs;
  const auto plain = prepared.solve(f);
  const Reference ref = reference_of(plain);

  const Pipeline pipeline =
      build_pipeline(problem.matrix, problem.classes, config);
  const TracedSolve serial =
      traced_solve(*pipeline.op, *pipeline.precond, prepared, f);
  check(matches(ref, serial.result.iterations, serial.result.converged,
                serial.solution),
        spec + ": serial decorated solve == Prepared::solve bitwise");
  check(serial.spmv.calls > 0 && serial.sweep.calls > 0 &&
            serial.spmv.seconds + serial.sweep.seconds <= serial.wall_s,
        spec + ": decorators saw every layer call inside the solve wall");

  mstep::par::ThreadPool pool(1);
  const ShardedPipeline sharded = build_sharded(pipeline, 4, pool);
  const TracedSolve traced_sharded =
      traced_solve(*sharded.op, *sharded.precond, prepared, f);
  check(matches(ref, traced_sharded.result.iterations,
                traced_sharded.result.converged, traced_sharded.solution),
        spec + ": sharded decorated solve == Prepared::solve bitwise");
  check(sharded.plan->num_shards() == 4 && sharded.ghost_rows > 0,
        spec + ": 4 shards with a non-empty halo");
}

void percentile_needs_ten_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  check(!percentile(v, 0.99), "p99 of 999 samples is omitted (9 beyond)");
  v.push_back(1000);
  const auto p99 = percentile(v, 0.99);
  check(p99 && *p99 == 990.0, "p99 of 1000 samples is the 990th (10 beyond)");
  const std::vector<double> nineteen(v.begin(), v.begin() + 19);
  check(!percentile(nineteen, 0.5), "p50 of 19 samples is omitted");
  const std::vector<double> twenty(v.begin(), v.begin() + 20);
  check(percentile(twenty, 0.5) == 10.0, "p50 of 20 samples is reported");
  check(median(nineteen) == 10.0, "median is reported whatever the count");
  const std::vector<double> eight(v.begin(), v.begin() + 8);
  check(upper_quartile(eight) == 6.75,
        "upper quartile matches statistics.quantiles (6.75 of 1..8)");
}

std::set<std::string> names_of(const Metrics& m) {
  std::set<std::string> names;
  for (const Metric& metric : m.entries()) names.insert(metric.name);
  return names;
}

/// An injected non-converging config is counted, never dropped.
void failing_config_is_counted(const std::string& workload) {
  RunOptions o;
  o.workload = workload;
  o.seconds = 0.05;
  o.plate_a = 12;
  o.config_suffix = ";maxit=1";
  const RunResult r = run_workload(o);
  double ok_frac = -1.0;
  for (const Metric& m : r.metrics.entries()) {
    if (m.name == "ok_frac") ok_frac = m.value;
  }
  check(r.outcome.attempted > 0 && r.outcome.failed == r.outcome.attempted &&
            ok_frac == 0.0 &&
            result_line(r.outcome, r.metrics).find("\"correct\": false") !=
                std::string::npos,
        workload + " with maxit=1: every op failed, ok_frac 0, correct false");
}

/// Every workload runs clean at a small size and reports the same metric
/// names in each mode.  plate_par4 is left out: its 4-thread sharded solves
/// of a system this small trip the open ThreadPool lifetime race; it shares
/// every line of plate_serial's code but the config.
void workloads_run_clean() {
  for (const bool trace : {false, true}) {
    std::set<std::string> first;
    for (const std::string& w : workload_names()) {
      if (w == "plate_par4") continue;
      RunOptions o;
      o.workload = w;
      o.seed = 7;
      o.seconds = 0.3;
      o.trace = trace;
      o.plate_a = 16;
      const RunResult r = run_workload(o);
      check(r.outcome.attempted > 0 && r.outcome.failed == 0,
            w + (trace ? " traced" : " untraced") + " runs clean (" +
                std::to_string(r.outcome.attempted) + " checked ops)");
      if (first.empty()) {
        first = names_of(r.metrics);
      } else {
        check(names_of(r.metrics) == first,
              w + (trace ? " traced" : " untraced") +
                  " reports the same metric names as " + workload_names()[0]);
      }
    }
  }
}

}  // namespace

int main() {
  mstep::obs::Tracer::instance().set_enabled(false);
  try {
    decorated_solves_are_bitwise("femplate:a=16",
                                 "splitting=ssor;m=4;params=lsq;format=auto");
    decorated_solves_are_bitwise("poisson2d:n=32", "splitting=ssor;m=2");
    percentile_needs_ten_beyond();
    failing_config_is_counted("plate_serial");
    failing_config_is_counted("batch16");
    workloads_run_clean();
  } catch (const std::exception& e) {
    std::cout << "FAIL threw: " << e.what() << '\n';
    ++g_failures;
  }
  std::cout << (g_failures == 0 ? "all self-tests passed"
                                : std::to_string(g_failures) + " failed")
            << '\n';
  return g_failures == 0 ? 0 : 1;
}
