#include "sched/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/trace_log.h"
#include "obs/wait_events.h"

namespace elephant {
namespace sched {

ThreadPool::ThreadPool(size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    const uint32_t track = obs::TraceLog::Global().NewThreadTrack(
        name_ + "-" + std::to_string(i));
    threads_.emplace_back([this, track]() {
      obs::TraceLog::AdoptThreadTrack(track);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  Enqueue(Task{std::move(fn), nullptr});
}

void ThreadPool::Enqueue(Task task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

uint64_t ThreadPool::tasks_executed() const {
  MutexLock lock(mu_);
  return executed_;
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

size_t ThreadPool::ActiveTasks() const {
  MutexLock lock(mu_);
  return active_;
}

double ThreadPool::BusySeconds() const {
  MutexLock lock(mu_);
  return busy_seconds_;
}

size_t ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 4 : hw, 2, 16);
}

void ThreadPool::WorkerLoop() {
  mu_.Lock();
  while (true) {
    while (!stop_ && queue_.empty()) {
      // Idle workers have no query sink attached; the park lands in the
      // global registry only, under its scheduler-specific name.
      obs::WaitScope idle(obs::WaitEventId::kSchedulerWorkerIdle);
      cv_.Wait(mu_);
    }
    // Drain remaining tasks even when stopping, so futures never dangle.
    if (queue_.empty()) break;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    active_++;
    mu_.Unlock();
    const auto start = std::chrono::steady_clock::now();
    task.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    mu_.Lock();
    active_--;
    busy_seconds_ += seconds;
    executed_++;
    if (task.publish) {
      // Counters first, result second: whoever wakes on the result already
      // sees this task counted.
      mu_.Unlock();
      task.publish();
      mu_.Lock();
    }
  }
  mu_.Unlock();
}

}  // namespace sched
}  // namespace elephant
