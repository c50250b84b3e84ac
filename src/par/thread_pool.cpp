#include "par/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace mstep::par {

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) {
    throw std::invalid_argument(
        "ThreadPool: need >= 1 thread (the caller counts); serial execution "
        "means no pool, not a 0-thread pool");
  }
  const int extra = std::max(0, threads - 1);
  workers_.reserve(extra);
  for (int i = 0; i < extra; ++i) {
    // Workers name their trace track up front ("pool-1"..., the caller
    // thread is pool-0's role), so a trace taken later in the process
    // lifetime still labels every track.
    workers_.emplace_back([this, i] {
      obs::name_thread("pool-" + std::to_string(i + 1));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mutex_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // A job that has run dry may already have returned to its caller,
      // whose body is gone: joining it would call a dangling body, and with
      // the next job's indices once that job resets the cursor.  While the
      // cursor is short of the end, the caller is still waiting for us.
      if (next_.load(std::memory_order_relaxed) >= end_) continue;
      active_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    work_on_current_job();
    if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last worker out wakes the caller.
      std::lock_guard<std::mutex> lk(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::work_on_current_job() {
  const auto* body = body_.load(std::memory_order_acquire);
  for (;;) {
    const index_t b = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (b >= end_) return;
    try {
      (*body)(b, std::min(end_, b + chunk_));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      // Park the cursor at the end so every thread stops taking chunks.
      next_.store(end_, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::for_range(index_t begin, index_t end,
                           const std::function<void(index_t, index_t)>& body) {
  if (begin >= end) return;
  if (workers_.empty() || end - begin < 2) {
    body(begin, end);
    return;
  }
  // The job state below is one slot: a second caller must wait for this
  // job to finish, not overwrite its body and cursor.
  const std::lock_guard<std::mutex> caller(caller_mutex_);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    body_.store(&body, std::memory_order_release);
    end_ = end;
    chunk_ = std::max<index_t>(
        1, (end - begin) / (4 * static_cast<index_t>(threads())));
    next_.store(begin, std::memory_order_relaxed);
    ++generation_;
  }
  start_cv_.notify_all();
  work_on_current_job();  // the caller participates
  std::unique_lock<std::mutex> lk(mutex_);
  done_cv_.wait(lk, [&] {
    return next_.load(std::memory_order_relaxed) >= end_ &&
           active_workers_.load(std::memory_order_acquire) == 0;
  });
  if (error_) {
    std::exception_ptr e;
    std::swap(e, error_);
    std::rethrow_exception(e);
  }
}

void ThreadPool::for_each(index_t begin, index_t end,
                          const std::function<void(index_t)>& body) {
  for_range(begin, end, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) body(i);
  });
}

}  // namespace mstep::par
