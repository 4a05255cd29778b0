// Fixed-size worker thread pool with futures and exception propagation.
//
// Built for deterministic parallel searches (Piper's and DAPPLE's scoring,
// the Monte-Carlo robustness trials): tasks are pure functions whose
// results are reduced in a caller-defined order, so the pool guarantees
// nothing about completion order -- only that every submitted task runs
// exactly once and that an exception thrown inside a task surfaces from
// the corresponding future's get(). A pool is reusable across independent
// task batches.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace autopipe::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  /// Drains the queue and joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `f` and returns its future; an exception escaping `f` is
  /// rethrown by future::get().
  template <typename F>
  auto submit(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> out = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return out;
  }

  /// Admission-controlled flavour of submit(): enqueues `f` only when fewer
  /// than `max_queue` tasks are already waiting (tasks a worker has picked
  /// up no longer count). Returns nullopt -- without enqueueing anything --
  /// when the pool is saturated, so callers can shed load instead of
  /// building an unbounded backlog.
  template <typename F>
  auto try_submit(F f, std::size_t max_queue)
      -> std::optional<std::future<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> out = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() >= max_queue) return std::nullopt;
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return out;
  }

  /// Tasks submitted but not yet picked up by a worker -- the backlog an
  /// admission controller inspects. Running tasks are not counted.
  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// max(1, std::thread::hardware_concurrency()).
  static int default_threads();

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// `threads` knob convention shared by the planner, the facades and the
/// baseline planners: 0 means "auto" (hardware concurrency), anything else
/// is used as given (clamped to >= 1).
int resolve_threads(int requested);

/// Runs fn(i) for every i in [0, n): fan out over `pool` when non-null,
/// inline on the calling thread otherwise. Blocks until all iterations
/// finish; the first exception in index order is rethrown.
void parallel_for(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace autopipe::util
