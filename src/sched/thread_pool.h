#pragma once

#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.h"

namespace elephant {
namespace sched {

/// A fixed-size worker thread pool with a FIFO task queue. Tasks must be
/// finite and must not block on other tasks in the same pool (the engine
/// keeps intra-query workers and the session scheduler in separate pools so
/// a full pool can never deadlock on itself; a session thread additionally
/// runs one worker share inline, so progress never depends on a free pool
/// thread).
///
/// The destructor drains the queue: every task already submitted runs to
/// completion before the threads join.
class ThreadPool {
 public:
  /// `name` labels the pool's threads on telemetry tracks ("<name>-<i>")
  /// and its gauges in metrics exports.
  explicit ThreadPool(size_t num_threads, std::string name = "worker");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some pool thread.
  void Submit(std::function<void()> fn);

  /// Enqueues a callable and returns a future for its result (exceptions
  /// propagate through the future). The future becomes ready only after the
  /// pool has counted the task, so a caller that has seen it ready also sees
  /// the task in tasks_executed() and BusySeconds().
  template <typename F>
  auto Async(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto result = std::make_shared<std::future<R>>(task->get_future());
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> fut = promise->get_future();
    Enqueue(Task{[task] { (*task)(); },
                 [result, promise] { Forward(std::move(*result), promise.get()); }});
    return fut;
  }

  size_t num_threads() const { return threads_.size(); }
  const std::string& name() const { return name_; }

  /// Tasks completed so far (for tests and metrics).
  uint64_t tasks_executed() const;

  /// Tasks waiting in the queue right now (scheduler backlog gauge).
  size_t QueueDepth() const;

  /// Tasks currently executing on pool threads.
  size_t ActiveTasks() const;

  /// Total seconds pool threads have spent inside tasks since construction.
  /// Utilization over the pool's lifetime = BusySeconds() / (uptime *
  /// num_threads()); exporters compute it at scrape time.
  double BusySeconds() const;

  /// A reasonable default pool size for this machine.
  static size_t DefaultThreads();

 private:
  /// A queued unit of work: `run` is the timed part; `publish` (may be
  /// empty) makes its result visible and runs after the counters are bumped.
  struct Task {
    std::function<void()> run;
    std::function<void()> publish;
  };

  void Enqueue(Task task);
  void WorkerLoop();

  /// Moves a finished task's value or exception into the caller's promise.
  template <typename R>
  static void Forward(std::future<R> from, std::promise<R>* to) {
    try {
      if constexpr (std::is_void_v<R>) {
        from.get();
        to->set_value();
      } else {
        to->set_value(from.get());
      }
    } catch (...) {
      to->set_exception(std::current_exception());
    }
  }

  const std::string name_;
  mutable Mutex mu_{LockRank::kScheduler, "ThreadPool::mu_"};
  CondVar cv_;
  std::deque<Task> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t executed_ GUARDED_BY(mu_) = 0;
  size_t active_ GUARDED_BY(mu_) = 0;
  double busy_seconds_ GUARDED_BY(mu_) = 0;
  /// Written only in the constructor and joined in the destructor; never
  /// touched by the workers themselves, so it needs no guard.
  std::vector<std::thread> threads_;
};

}  // namespace sched
}  // namespace elephant
