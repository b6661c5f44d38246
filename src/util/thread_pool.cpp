#include "util/thread_pool.hpp"

#include <algorithm>

namespace hts::util {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      LockGuard lock(mutex_);
      while (!stop_ && queue_.empty()) work_ready_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = queue_.back();
      queue_.pop_back();
    }
    (*task.fn)(task.begin, task.end);
    {
      LockGuard lock(mutex_);
      if (--*task.remaining == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t n_workers = workers_.size();
  // Chunk so each worker gets a handful of tasks; the tail chunk may be short.
  const std::size_t n_chunks = std::min(n, n_workers * 4);
  if (n_chunks <= 1) {
    fn(0, n);
    return;
  }
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  // Per-call completion count: concurrent parallel_for calls from distinct
  // threads each wait only for their own chunks.  Written under mutex_ from
  // here on (see Task::remaining).
  std::size_t remaining = 0;
  {
    LockGuard lock(mutex_);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      Task task;
      task.fn = &fn;
      task.begin = begin;
      task.end = std::min(begin + chunk, n);
      task.remaining = &remaining;
      queue_.push_back(task);
      ++remaining;
    }
  }
  work_ready_.notify_all();
  LockGuard lock(mutex_);
  while (remaining != 0) work_done_.wait(mutex_);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hts::util
