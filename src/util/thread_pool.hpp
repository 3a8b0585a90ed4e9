#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace billcap::util {

/// Outcome of a task submitted through `submit_noexcept`: either the task's
/// return value or the `what()` of the exception it threw. Workers never
/// terminate the process on a throwing task — the error travels back to the
/// submitter as data, the same way `CappingOutcome.failure` carries solver
/// trouble instead of an exception.
template <typename R>
struct TaskResult {
  bool ok = false;
  R value{};
  std::string error;
};

template <>
struct TaskResult<void> {
  bool ok = false;
  std::string error;
};

/// Fixed-size worker pool. The fleet controller shards its region chunks
/// across it; the sweep benches (pricing policies, monthly budgets) and the
/// Monte-Carlo property tests submit independent month-long simulations to
/// it and read the futures in index order. On a single-core host it
/// degrades gracefully to near-serial execution.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task and returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Enqueues a task whose exceptions are converted into a typed
  /// `TaskResult` instead of being rethrown from `future::get()`. Use this
  /// for fan-out work where one bad shard must not abort the reduction —
  /// the caller inspects `ok`/`error` per task and degrades locally.
  template <typename F>
  auto submit_noexcept(F&& fn)
      -> std::future<TaskResult<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    return submit(
        [task = std::forward<F>(fn)]() mutable -> TaskResult<R> {
          TaskResult<R> result;
          try {
            if constexpr (std::is_void_v<R>) {
              task();
            } else {
              result.value = task();
            }
            result.ok = true;
          } catch (const std::exception& ex) {
            result.error = ex.what();
          } catch (...) {  // billcap-lint: allow(catch-all): typed TaskResult
            // boundary — unknown exception becomes an error string, never
            // an aborted worker thread.
            result.error = "unknown exception";
          }
          return result;
        });
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace billcap::util
