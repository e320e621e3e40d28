#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"

namespace a2a {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    A2A_GAUGE("pool.queue_depth").sub(1);
    const auto task_start = std::chrono::steady_clock::now();
    task();
    A2A_HISTOGRAM("pool.task_seconds")
        .observe_seconds(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - task_start)
                             .count());
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Work-stealing via a shared atomic index keeps task-queue overhead at one
  // enqueued closure per worker regardless of `count`. All cross-thread
  // coordination lives in one shared block; the exception slot is written
  // AND read under the same mutex, so its publication to the caller never
  // relies on an atomic flag alone (the old scheme wrote the exception_ptr
  // after flipping the flag, leaving a window where the rethrow could read
  // a half-published pointer).
  struct SharedState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    /// Failure hint: lets other workers skip the remaining iterations once
    /// an exception is pending (the caller rethrows, so their results would
    /// be discarded anyway).
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;  ///< guarded by error_mutex.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool done = false;  ///< guarded by done_mutex.
  };
  auto state = std::make_shared<SharedState>();

  const std::size_t n_tasks = std::min<std::size_t>(workers_.size(), count);
  state->remaining.store(n_tasks, std::memory_order_relaxed);

  // `fn` is captured by reference: the caller blocks until every body has
  // finished, so it strictly outlives all uses.
  auto body = [state, &fn, count] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      if (state->failed.load(std::memory_order_acquire)) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(state->error_mutex);
        if (!state->error) state->error = std::current_exception();
        state->failed.store(true, std::memory_order_release);
      }
    }
    if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(state->done_mutex);
      state->done = true;
      state->done_cv.notify_all();
    }
  };

  {
    std::lock_guard lock(mutex_);
    for (std::size_t t = 0; t < n_tasks; ++t) queue_.push(body);
  }
  A2A_COUNTER("pool.tasks").add(n_tasks);
  A2A_GAUGE("pool.queue_depth").add(static_cast<std::int64_t>(n_tasks));
  cv_.notify_all();

  {
    std::unique_lock lock(state->done_mutex);
    state->done_cv.wait(lock, [&] { return state->done; });
  }
  // Move the exception out rather than copy it: a worker may still be
  // destroying the last copy of `state`, and only the caller's thread may
  // then own the exception object.
  std::exception_ptr error;
  {
    std::lock_guard lock(state->error_mutex);
    error = std::exchange(state->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace a2a
