// Per-kernel roofline harness for the SIMD kernel layer.
//
// Times every hot kernel family — the blocked dot, axpy, SpMV in each
// layout (CSR, DIA — the run storage — and SELL-C-sigma), and the
// multicolor m-step SSOR sweep, single-vector and on a block of four
// (`sweep`/`block4`, rated per vector) — twice: once with the portable
// scalar twins forced (SimdModeGuard(kForceScalar)) and once with the
// vector path active, and reports per-kernel effective bandwidth (GB/s,
// from a roofline traffic model of the layout) and arithmetic throughput
// (GFLOP/s, useful flops only — SELL padding does not count).  The
// scale-free column the CI perf gate checks is `simd_speedup` = scalar
// seconds / simd seconds; the machine-independent hard check is
// `bitwise_match_scalar` — both paths must produce IDENTICAL bits (the
// la/simd.hpp contract).  The SELL and DIA SpMV results are additionally
// compared bitwise against the CSR result in-process; any mismatch exits
// 1.  The DIA row (the run storage) runs on the colour-permuted plate, the
// ordering it is built for.  The sweep/csr row also reports
// `run_row_frac`, the share of swept rows the plan stores as
// constant-offset runs (ungated), and the spmv/dia row the run value
// bytes the store holds (`run_bytes_held`, each distinct column once)
// next to those one product reads (`run_bytes_read`) and their ratio
// (`run_read_per_held`, all ungated).  A last row prices the switched-off
// tracer's cost in one plate solve (`trace_off_overhead`, see below).
//
// Emits a flat JSON array (--out=BENCH_kernels.json) keyed by
// (kernel, format, n) for tools/check_bench.py.  GB/s and GFLOP/s are
// informational (absolute rates differ across runner generations); the
// traffic models are stated inline and count each operand stream once.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/multicolor_mstep.hpp"
#include "core/params.hpp"
#include "fem/plane_stress.hpp"
#include "fem/plate_mesh.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"
#include "la/vector.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/span.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mstep;

struct Row {
  std::string kernel;
  std::string format;
  index_t n = 0;
  long long flops_per_apply = 0;   // useful flops (padding excluded)
  long long bytes_per_apply = 0;   // roofline traffic model
  double seconds_scalar = 0.0;     // per apply, best of repeats
  double seconds_simd = 0.0;
  double simd_speedup = 0.0;       // scalar / simd — the gated metric
  double gbs_scalar = 0.0;
  double gbs_simd = 0.0;
  double gflops_scalar = 0.0;
  double gflops_simd = 0.0;
  bool bitwise_match_scalar = true;
  std::string simd_isa;            // path the "simd" column actually ran
  double run_row_frac = -1.0;      // sweep/csr only: rows on the run path
  long long run_bytes_held = -1;   // spmv/dia only: distinct run columns
  long long run_bytes_read = -1;   // spmv/dia only: run values read
};

/// Run value bytes one product reads per byte the store holds.
double read_per_held(const Row& r) {
  return static_cast<double>(r.run_bytes_read) /
         static_cast<double>(std::max(1LL, r.run_bytes_held));
}

/// Counts kernel-log callbacks: each is one obs::count check when the log
/// feeds the tracer (obs::TracingKernelLog).  end_iteration bumps nothing.
struct CallCountingLog final : core::KernelLog {
  void vec_op(index_t, int) override { ++calls; }
  void dot_op(index_t) override { ++calls; }
  void max_op(index_t) override { ++calls; }
  void diag_op(index_t) override { ++calls; }
  void spmv_diagonals(index_t, int) override { ++calls; }
  void end_precond_step() override { ++calls; }
  long long calls = 0;
};

/// Per-apply seconds of `apply`, repeated enough to cover ~`target_flops`
/// per measurement, best of `repeats` measurements.
template <typename F>
double time_kernel(const F& apply, long long flops_per_apply,
                   long long target_flops, int repeats) {
  const long long iters =
      std::max<long long>(2, target_flops / std::max<long long>(1, flops_per_apply));
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    util::Timer timer;
    for (long long it = 0; it < iters; ++it) apply();
    best = std::min(best, timer.seconds() / static_cast<double>(iters));
  }
  return best;
}

/// Times `apply` once per mode (scalar-forced, then the ambient dispatch)
/// and fills the rate columns.  `check` must run the kernel ONCE on fresh
/// state and return its output by value — it is invoked under each mode
/// for the bitwise comparison, independent of the (state-mutating) timing
/// loops.
template <typename F, typename C>
void measure(Row* row, const F& apply, const C& check, long long target_flops,
             int repeats) {
  {
    const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
    row->seconds_scalar =
        time_kernel(apply, row->flops_per_apply, target_flops, repeats);
  }
  row->simd_isa = la::simd::simd_isa();
  row->seconds_simd =
      time_kernel(apply, row->flops_per_apply, target_flops, repeats);
  decltype(check()) scalar_out;
  {
    const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
    scalar_out = check();
  }
  row->bitwise_match_scalar = scalar_out == check();
  row->simd_speedup = row->seconds_scalar / row->seconds_simd;
  const auto rate = [](long long amount, double seconds) {
    return static_cast<double>(amount) / seconds * 1e-9;
  };
  row->gbs_scalar = rate(row->bytes_per_apply, row->seconds_scalar);
  row->gbs_simd = rate(row->bytes_per_apply, row->seconds_simd);
  row->gflops_scalar = rate(row->flops_per_apply, row->seconds_scalar);
  row->gflops_simd = rate(row->flops_per_apply, row->seconds_simd);
}

void print_rows(const std::vector<Row>& rows, const std::string& title) {
  util::Table t({"kernel", "format", "n", "GB/s scalar", "GB/s simd",
                 "GFLOP/s simd", "speedup", "bitwise"});
  for (const Row& r : rows) {
    t.add_row({r.kernel, r.format, std::to_string(r.n),
               util::Table::fixed(r.gbs_scalar, 2),
               util::Table::fixed(r.gbs_simd, 2),
               util::Table::fixed(r.gflops_simd, 2),
               util::Table::fixed(r.simd_speedup, 2),
               r.bitwise_match_scalar ? "yes" : "NO"});
  }
  t.print(std::cout, title);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv, {"quick", "size", "vecn", "repeats", "out"});
    const bool quick = cli.has("quick");
    const int plate = cli.get_int("size", quick ? 32 : 64);
    const auto vecn =
        static_cast<std::size_t>(cli.get_int("vecn", quick ? 1 << 17 : 1 << 21));
    const int repeats = cli.get_int("repeats", quick ? 3 : 5);
    const std::string out_path = cli.get("out", "BENCH_kernels.json");
    // Enough work per measurement that the timer resolution is noise.
    const long long target_flops = quick ? 20'000'000 : 100'000'000;

    std::cout << "== SIMD kernel roofline harness ==\n"
              << "simd compiled = " << (la::simd::simd_compiled() ? "yes" : "no")
              << ", available = " << (la::simd::simd_available() ? "yes" : "no")
              << ", isa = " << la::simd::simd_isa() << ", best of " << repeats
              << " repeat(s)\n\n";

    std::vector<Row> rows;

    // ---- BLAS-1 on dense vectors ------------------------------------------
    util::Rng rng(1);
    const Vec vx = rng.uniform_vector(vecn);
    const Vec vy = rng.uniform_vector(vecn);
    {
      Row r;
      r.kernel = "dot";
      r.format = "vec";
      r.n = static_cast<index_t>(vecn);
      r.flops_per_apply = 2LL * static_cast<long long>(vecn);
      r.bytes_per_apply = 16LL * static_cast<long long>(vecn);  // x + y reads
      double sink = 0.0;
      measure(&r, [&] { sink = la::dot(vx, vy); },
              [&] { return la::dot(vx, vy); }, target_flops, repeats);
      (void)sink;
      rows.push_back(r);
    }
    {
      Row r;
      r.kernel = "axpy";
      r.format = "vec";
      r.n = static_cast<index_t>(vecn);
      r.flops_per_apply = 2LL * static_cast<long long>(vecn);
      // x read + y read + y write.
      r.bytes_per_apply = 24LL * static_cast<long long>(vecn);
      Vec y = vy;
      // Alternating signs keep y bounded across the timing loop; the
      // bitwise check runs once on a fresh copy instead.
      bool flip = false;
      measure(&r,
              [&] {
                la::axpy(flip ? -1e-6 : 1e-6, vx, y);
                flip = !flip;
              },
              [&] {
                Vec fresh = vy;
                la::axpy(1e-6, vx, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
    }

    // ---- SpMV per format on the FEM plate matrix --------------------------
    const fem::PlateMesh mesh = fem::PlateMesh::unit_square(plate);
    const auto sys = fem::assemble_plane_stress(mesh, fem::Material{},
                                                fem::EdgeLoad{1.0, 0.0});
    const la::CsrMatrix& csr = sys.stiffness;
    const index_t n = csr.rows();
    const long long nnz = csr.nnz();
    const Vec x = rng.uniform_vector(static_cast<std::size_t>(n));
    Vec y(static_cast<std::size_t>(n));

    Vec csr_scalar_out;  // scalar-path CSR result, the cross-format reference
    {
      const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
      csr.multiply(x, csr_scalar_out);
    }

    {
      Row r;
      r.kernel = "spmv";
      r.format = "csr";
      r.n = n;
      r.flops_per_apply = 2 * nnz;
      // val + col per entry, gathered x counted once per entry, row_ptr,
      // y write.
      r.bytes_per_apply = 20 * nnz + 12LL * n;
      measure(&r, [&] { csr.multiply(x, y); },
              [&] {
                Vec fresh;
                csr.multiply(x, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
    }
    {
      // The run storage on the colour-permuted plate, the matrix the solver
      // builds it for: the natural ordering interleaves the two unknowns
      // per node, so no four consecutive rows share an offset list and the
      // product would be CSR's kernel.
      const auto cs = color::make_colored_system(
          csr, color::six_color_classes(mesh));
      const la::DiaMatrix dia = la::DiaMatrix::from_csr(cs.matrix);
      Vec dia_scalar_out;
      {
        const la::simd::SimdModeGuard guard(la::simd::SimdMode::kForceScalar);
        cs.matrix.multiply(x, dia_scalar_out);
      }
      Row r;
      r.kernel = "spmv";
      r.format = "dia";
      r.n = n;
      r.flops_per_apply = 2 * nnz;
      // Per value read (run values, rest rows' CSR entries): value and x
      // read; y written once per row.  Run offsets are per run, not per
      // entry, and the rest rows' column indices are not counted.  A run
      // value column the store holds once is still priced at every term
      // that reads it, so once the distinct columns stay in cache this
      // rate can pass what memory delivers; the bytes held are reported
      // next to the bytes read.
      r.bytes_per_apply =
          16LL * static_cast<long long>(dia.stored_values()) + 8LL * n;
      const la::simd::RunView runs = dia.runs();
      long long run_values = 0;
      for (index_t q = 0; q < runs.num_runs; ++q) {
        run_values += static_cast<long long>(runs.count[q]) * runs.len[q];
      }
      r.run_bytes_held = 8LL * static_cast<long long>(dia.held_values());
      r.run_bytes_read = 8LL * run_values;
      std::cout << "dia run values: " << r.run_bytes_held
                << " bytes held, " << r.run_bytes_read
                << " bytes read per product (read / held = "
                << read_per_held(r) << ")\n\n";
      measure(&r, [&] { dia.multiply(x, y); },
              [&] {
                Vec fresh;
                dia.multiply(x, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
      dia.multiply(x, y);
      if (y != dia_scalar_out) {
        std::cerr << "DIA SpMV is not bitwise CSR SpMV!\n";
        return 1;
      }
    }
    {
      const la::SellMatrix sell = la::SellMatrix::from_csr(csr);
      Row r;
      r.kernel = "spmv";
      r.format = "sell";
      r.n = n;
      r.flops_per_apply = 2 * nnz;  // useful flops: padding is masked, not added
      // val + col + gathered x per stored (padded) entry, len/perm + y
      // write per slot.
      r.bytes_per_apply =
          20LL * static_cast<long long>(sell.stored_values()) + 16LL * n;
      measure(&r, [&] { sell.multiply(x, y); },
              [&] {
                Vec fresh;
                sell.multiply(x, fresh);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(r);
      sell.multiply(x, y);
      if (y != csr_scalar_out) {
        std::cerr << "SELL SpMV is not bitwise CSR SpMV!\n";
        return 1;
      }
    }

    // ---- The multicolor m-step SSOR sweep ---------------------------------
    {
      const auto cs = color::make_colored_system(
          csr, color::six_color_classes(mesh));
      const int m = 4;
      const core::MulticolorMStepSsor prec(
          cs, core::least_squares_alphas(m, core::ssor_interval()));
      const Vec res = rng.uniform_vector(static_cast<std::size_t>(n));
      Vec z(static_cast<std::size_t>(n));
      Row r;
      r.kernel = "sweep";
      r.format = "csr";
      r.n = n;
      const long long traversals = prec.offdiag_traversals_per_apply();
      // Off-diagonal mul+adds plus the per-step 4-flop recombine per row.
      r.flops_per_apply = 2 * traversals + 4LL * m * n;
      // val + col + gathered z per traversal; z/y/r/diag streams per step.
      // Run rows read no column indices, but the model stays the one the
      // committed baselines were rated with, so GB/s compare across
      // layouts as a rate of the same work.
      r.bytes_per_apply = 20 * traversals + 40LL * m * n;
      measure(&r, [&] { prec.apply(res, z); },
              [&] {
                Vec fresh;
                prec.apply(res, fresh);
                return fresh;
              },
              target_flops, repeats);
      // The share of the rows one apply sums that sit in constant-offset
      // runs rather than SELL leftovers: every class's lower segments
      // (forward) and the upper segments of all but the last class
      // (backward and save).  Ungated; it shows how much of the sweep the
      // gather-free path carries.
      const core::MulticolorSweepPlan& plan = *prec.plan();
      long long run_rows = 0;
      long long swept_rows = 0;
      for (int c = 0; c < cs.num_classes(); ++c) {
        run_rows += plan.lower[c].run_rows();
        swept_rows += cs.class_size(c);
        if (c + 1 < cs.num_classes()) {
          run_rows += plan.upper[c].run_rows();
          swept_rows += cs.class_size(c);
        }
      }
      r.run_row_frac = static_cast<double>(run_rows) /
                       static_cast<double>(std::max(1LL, swept_rows));
      std::cout << "sweep run_row_frac = " << r.run_row_frac
                << " (rows summed on the run path per apply)\n\n";
      rows.push_back(r);

      // The same sweep on kSellSlice interleaved vectors (the solveMany
      // block path).  One apply serves every vector, so the models are
      // kSellSlice times the single sweep's: GB/s and GFLOP/s read per
      // vector, against the single-vector row above.  Ungated: the gate
      // walks the baseline's rows only.
      constexpr int kW = static_cast<int>(la::simd::kSellSlice);
      const Vec res_block =
          rng.uniform_vector(static_cast<std::size_t>(n * kW));
      Vec z_block;
      Row b;
      b.kernel = "sweep";
      b.format = "block4";
      b.n = n;
      b.flops_per_apply = kW * r.flops_per_apply;
      b.bytes_per_apply = kW * r.bytes_per_apply;
      measure(&b, [&] { prec.apply_block(res_block, z_block, kW); },
              [&] {
                Vec fresh;
                prec.apply_block(res_block, fresh, kW);
                return fresh;
              },
              target_flops, repeats);
      rows.push_back(b);
    }

    // ---- Trace-off overhead -----------------------------------------------
    // The observability policy (docs/observability.md): instrumentation
    // that is compiled in but switched off must cost nothing measurable.
    // Count, then price:
    //   overhead_ratio = 1 + (N_span * c_span + N_count * c_count) / T
    // where N_span is the spans one solve of the plate system opens (the
    // events a live-traced run records, plus any its ring buffers
    // dropped), N_count the kernel-log callbacks of the same solve (each
    // one obs::count check when the log feeds the tracer), c_* the
    // per-call time of a disabled span / counter bump (minimum over
    // `repeats` runs of millions of calls), and T the untraced solve's
    // time (best of `repeats`).  Timing the solve with and without spans
    // cannot resolve a 2% budget on a shared host: co-tenant noise moves
    // single timings by 10-40%.  N is exact and the priced calls are a
    // small share of T, so the ratio's noise is that share's.  CI gates
    // it at tol0.02 against bench/baselines/BENCH_trace_overhead.json's
    // 1.0.
    double overhead_ratio = 0.0;
    bool trace_bitwise_ok = true;
    long long calls_per_solve = 0;
    {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.set_enabled(false);
      const auto solver = solver::Solver::from_config(solver::SolverConfig{});
      const color::ColorClasses classes = color::six_color_classes(mesh);
      const auto prepared = solver.prepare(csr, classes);
      const util::Span<const Vec> load(&sys.load, 1);

      double solve_seconds = 1e300;
      solver::BatchReport plain;
      for (int rep = 0; rep < repeats; ++rep) {
        util::Timer timer;
        plain = prepared.solveMany(load);
        solve_seconds = std::min(solve_seconds, timer.seconds());
      }

      tracer.reset();
      solver::BatchReport traced;
      {
        const obs::EnableScope enable;
        traced = prepared.solveMany(load);
      }
      const std::string trace = tracer.chrome_json();
      long long spans = static_cast<long long>(tracer.dropped_events());
      const std::string complete_event = "\"ph\": \"X\"";
      for (auto at = trace.find(complete_event); at != std::string::npos;
           at = trace.find(complete_event, at + 1)) {
        ++spans;
      }
      tracer.reset();
      CallCountingLog log;
      (void)solver.prepare(csr, classes, &log).solve(sys.load);
      calls_per_solve = spans + log.calls;

      const long long kCalls = quick ? 2'000'000 : 10'000'000;
      const auto per_call = [&](const auto& call) {
        double best = 1e300;
        for (int rep = 0; rep < repeats; ++rep) {
          util::Timer timer;
          for (long long i = 0; i < kCalls; ++i) call(i);
          best = std::min(best, timer.seconds() / static_cast<double>(kCalls));
        }
        return best;
      };
      const double span_seconds =
          per_call([](long long) { const obs::Span span("bench_span_off"); });
      const double count_seconds = per_call(
          [](long long i) { obs::count(obs::Counter::kFlops, i); });
      overhead_ratio =
          1.0 + (static_cast<double>(spans) * span_seconds +
                 static_cast<double>(log.calls) * count_seconds) /
                    solve_seconds;

      // Tracing must never touch the data flow: the traced solve is
      // bitwise the untraced one.
      trace_bitwise_ok = plain.all_converged() && traced.all_converged() &&
                         plain.reports[0].iterations() ==
                             traced.reports[0].iterations() &&
                         plain.reports[0].solution ==
                             traced.reports[0].solution;

      std::cout << "trace-off overhead: " << spans << " spans x "
                << span_seconds * 1e9 << " ns + " << log.calls
                << " counter calls x " << count_seconds * 1e9 << " ns over a "
                << solve_seconds * 1e3 << " ms solve -> ratio "
                << overhead_ratio << "; traced solve bitwise "
                << (trace_bitwise_ok ? "yes" : "NO") << "\n\n";
    }

    print_rows(rows, "kernel roofline (n = " + std::to_string(n) +
                         " FEM equations, vec n = " + std::to_string(vecn) +
                         ")");

    util::Json json_rows = util::Json::array();
    bool all_ok = true;
    for (const Row& r : rows) {
      all_ok = all_ok && r.bitwise_match_scalar;
      util::Json row = util::Json::object();
      row.set("kernel", r.kernel)
          .set("format", r.format)
          .set("n", r.n)
          .set("flops_per_apply", r.flops_per_apply)
          .set("bytes_per_apply", r.bytes_per_apply)
          .set("seconds_scalar", r.seconds_scalar)
          .set("seconds_simd", r.seconds_simd)
          .set("simd_speedup", r.simd_speedup)
          .set("gbs_scalar", r.gbs_scalar)
          .set("gbs_simd", r.gbs_simd)
          .set("gflops_scalar", r.gflops_scalar)
          .set("gflops_simd", r.gflops_simd)
          .set("bitwise_match_scalar", r.bitwise_match_scalar)
          .set("simd_isa", r.simd_isa);
      if (r.run_row_frac >= 0.0) row.set("run_row_frac", r.run_row_frac);
      if (r.run_bytes_held >= 0) {
        row.set("run_bytes_held", r.run_bytes_held)
            .set("run_bytes_read", r.run_bytes_read)
            .set("run_read_per_held", read_per_held(r));
      }
      json_rows.push(std::move(row));
    }
    // The overhead row rides the same document (extra candidate rows are
    // legal for the roofline gate; its own gate keys on kernel,format
    // against the separate BENCH_trace_overhead.json baseline).
    all_ok = all_ok && trace_bitwise_ok;
    json_rows.push(util::Json::object()
                       .set("kernel", "trace_off_overhead")
                       .set("format", "vec")
                       .set("n", n)
                       .set("calls_per_solve", calls_per_solve)
                       .set("overhead_ratio", overhead_ratio)
                       .set("bitwise_match_traced", trace_bitwise_ok));
    std::ofstream json(out_path);
    json_rows.dump(json);
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
      std::cerr << "SIMD path diverged bitwise from the scalar twin!\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_kernels: " << e.what() << '\n';
    return 2;
  }
}
