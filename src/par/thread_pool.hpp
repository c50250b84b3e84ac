// Shared-memory execution substrate.
//
// The point of the multicolor ordering is that every equation in a colour
// class can be updated simultaneously.  This pool backs a parallel
// within-class sweep: because the class diagonal blocks are diagonal, the
// parallel result is BITWISE identical to the serial one (each row reads
// only other-class values and writes only itself) — a property the tests
// assert with real threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "la/vector.hpp"

namespace mstep::par {

/// Fixed-size worker pool executing half-open index ranges.
///
/// for_range(begin, end, body) partitions [begin, end) into chunks and
/// runs body(chunk_begin, chunk_end) on the workers plus the calling
/// thread, returning when the whole range is done.  If body throws, the
/// sweep is cut short, the first exception is rethrown on the calling
/// thread, and the pool remains usable for subsequent jobs.
///
/// One job runs at a time.  Several threads may dispatch on one pool (the
/// daemon's connection threads share a cached solver's pool); their jobs
/// are serialized, each running to completion before the next starts.
/// Dispatch is single-level: a body must not call for_range/for_each on
/// the pool running it (it would wait on its own job and deadlock).  Work
/// that already runs inside a job, such as a batch lane, uses the serial
/// kernels instead.
class ThreadPool {
 public:
  /// `threads` total workers including the caller; 1 means serial.
  /// Throws std::invalid_argument when threads < 1: a zero-thread pool
  /// cannot exist — "no threading" is expressed by constructing no pool at
  /// all (ExecutionConfig::resolve() == 0), never by an empty pool.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  void for_range(index_t begin, index_t end,
                 const std::function<void(index_t, index_t)>& body);

  /// Convenience: per-index body.
  void for_each(index_t begin, index_t end,
                const std::function<void(index_t)>& body);

 private:
  void worker_loop();
  void work_on_current_job();

  std::vector<std::thread> workers_;

  std::mutex caller_mutex_;  // held by a dispatching caller for its whole job
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;  // first exception thrown by a body

  std::atomic<const std::function<void(index_t, index_t)>*> body_{nullptr};
  std::atomic<index_t> next_{0};
  index_t end_ = 0;
  index_t chunk_ = 1;
  std::atomic<int> active_workers_{0};
};

}  // namespace mstep::par
