// obs::Tracer — low-overhead, thread-safe tracing and profiling.
//
// The solver narrates its phase structure through RAII `Span`s
// (prepare → coloring → params; solve → iteration → sweep) and
// bumps a small set of global counters (flops, kernel calls, cache
// hits).  Each thread records into its own bounded ring buffer — a
// span costs two steady_clock reads and one uncontended mutex when
// tracing is ON, and a single relaxed atomic load when OFF, so the
// hot kernels stay untouched either way.  Tracing NEVER perturbs the
// floating-point data flow: a traced solve is bitwise identical to an
// untraced one (tests/test_obs.cpp asserts it per splitting × format).
//
// Switches, from cheapest to most explicit:
//   - compile time: -DMSTEP_OBS_DISABLED (CMake -DMSTEP_OBS=OFF) turns
//     every Span/counter into a no-op; the export API still links and
//     yields an empty trace.
//   - process: MSTEP_TRACE=on|1 in the environment, or the tools'
//     --trace=FILE flag (which also writes the export).
//   - scoped: obs::EnableScope, a refcount the daemon holds per
//     traced request so concurrent requests cannot clobber a global
//     flag.
//
// The export (`Tracer::chrome_json`) is Chrome trace-event JSON —
// load it at chrome://tracing or https://ui.perfetto.dev — with one
// track per thread (pool workers are named "pool-N") and complete
// ("ph":"X") events recorded at span END, so any ring-buffer drop
// still leaves a strictly nested, end-time-ordered stream
// (tools/check_trace.py validates both properties).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace mstep::obs {

/// Global profiling counters, bumped only while tracing is enabled and
/// exported in the trace document's "counters" object.
enum class Counter : int {
  kFlops = 0,      // floating-point operations (KernelLog census)
  kVecOps,         // elementwise vector kernels (axpy/scale/copy)
  kDots,           // inner products
  kSpmvs,          // sparse matrix-vector products
  kSweeps,         // preconditioner half/full sweeps
  kCacheHits,      // daemon prepared-pipeline cache hits
  kCounterCount,
};
inline constexpr int kNumCounters = static_cast<int>(Counter::kCounterCount);

/// Stable snake_case name for the export document.
[[nodiscard]] const char* counter_name(Counter c);

class Tracer {
 public:
  /// The process-wide tracer (thread-safe lazy init; reads MSTEP_TRACE).
  static Tracer& instance();

  /// The one check on every hot path.  True when the process switch is
  /// on OR at least one EnableScope is live.
  [[nodiscard]] bool enabled() const {
#ifdef MSTEP_OBS_DISABLED
    return false;
#else
    return enabled_.load(std::memory_order_relaxed) ||
           scopes_.load(std::memory_order_relaxed) > 0;
#endif
  }

  /// Process-wide switch (the env var / --trace flag path).
  void set_enabled(bool on);

  /// Microseconds since the tracer epoch (steady clock).
  [[nodiscard]] std::int64_t now_us() const;

  /// Record one complete span on the calling thread's ring buffer.
  void record(const char* name, std::int64_t ts_us, std::int64_t dur_us,
              std::uint64_t correlation);

  /// Unconditional counter bump (callers gate on enabled() — use the
  /// free obs::count() helper, which does).
  void add(Counter c, long long v);
  [[nodiscard]] long long counter(Counter c) const;

  /// Name the calling thread's track in the export ("pool-3", "main").
  void name_thread(const std::string& name);

  /// Events overwritten by ring-buffer wrap-around, across all threads.
  [[nodiscard]] std::size_t dropped_events() const;

  /// Drop all recorded events and zero the counters (thread names and
  /// track ids survive).  Tests and the bench overhead row use this.
  void reset();

  /// Chrome trace-event JSON.  correlation == 0 exports everything;
  /// nonzero keeps only spans recorded under that correlation id (the
  /// daemon's per-request extraction).
  [[nodiscard]] std::string chrome_json(std::uint64_t correlation = 0) const;

 private:
  Tracer();
  friend class EnableScope;

  std::atomic<bool> enabled_{false};
  std::atomic<int> scopes_{0};
  std::atomic<long long> counters_[kNumCounters] = {};
};

/// Counter bump that is a no-op when tracing is off.
inline void count(Counter c, long long v) {
#ifdef MSTEP_OBS_DISABLED
  (void)c;
  (void)v;
#else
  Tracer& t = Tracer::instance();
  if (t.enabled()) t.add(c, v);
#endif
}

/// The calling thread's current correlation id (0 = none).  The daemon
/// sets one per request so a multi-request trace can be split.
[[nodiscard]] std::uint64_t correlation();

/// RAII correlation id for the calling thread (saves and restores).
class CorrelationScope {
 public:
  explicit CorrelationScope(std::uint64_t id);
  ~CorrelationScope();
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// RAII scoped enable: tracing is on while any EnableScope is live,
/// independent of (and composing with) the process-wide switch.
class EnableScope {
 public:
  EnableScope();
  ~EnableScope();
  EnableScope(const EnableScope&) = delete;
  EnableScope& operator=(const EnableScope&) = delete;
};

/// RAII span.  Construction samples the clock only when tracing is
/// enabled; destruction records a complete event (name must be a
/// static string — phase names are literals).
class Span {
 public:
  explicit Span(const char* name) {
#ifdef MSTEP_OBS_DISABLED
    (void)name;
#else
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      name_ = name;
      start_us_ = t.now_us();
    }
#endif
  }
  ~Span() {
#ifndef MSTEP_OBS_DISABLED
    if (name_) {
      Tracer& t = Tracer::instance();
      t.record(name_, start_us_, t.now_us() - start_us_, correlation());
    }
#endif
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
#ifndef MSTEP_OBS_DISABLED
  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
#endif
};

/// Convenience forwarder for call sites that should not spell out the
/// singleton (thread pools naming their workers).
inline void name_thread(const std::string& name) {
  Tracer::instance().name_thread(name);
}

}  // namespace mstep::obs
