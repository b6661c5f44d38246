#pragma once

// A work-stealing-free, chunked parallel-for thread pool.
//
// This is the "GPU simulator" substrate: the paper's sampler is data-parallel
// across batch rows, and we reproduce the GPU-vs-CPU ablation (Fig. 4, left)
// by running identical kernels either serially or across this pool.
//
// Lock discipline (machine-checked under Clang -Wthread-safety): mutex_
// guards the queue and the stop flag; it is a leaf lock — tasks always run
// with no pool lock held (see util/mutex.hpp for the repo-wide order).

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::util {

class ThreadPool {
 public:
  /// n_threads == 0 selects the hardware concurrency.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(begin, end) over a partition of [0, n) on the pool's workers
  /// while the calling thread waits, blocking until all chunks complete (a
  /// range too small to split runs inline on the caller instead).  fn must
  /// be safe to invoke concurrently on disjoint ranges.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn)
      HTS_EXCLUDES(mutex_);

  /// Enqueues a single fire-and-forget task; returns immediately.  The task
  /// runs on one pool worker (never the caller), interleaved with
  /// parallel_for chunks through the same queue.  The service layer's worker
  /// fleet is built on this: each long-lived scheduler loop is one submitted
  /// task, so the fleet shares the pool type (and its shutdown discipline)
  /// with the data-parallel kernels instead of owning raw std::threads.
  /// Tasks still queued when the pool is destroyed are dropped; tasks must
  /// not outlive-block the pool unless the owner drains them first.
  void submit(std::function<void()> task) HTS_EXCLUDES(mutex_);

  /// Global pool sized to the machine; shared by tensor kernels.
  static ThreadPool& global();

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    /// Per-call chunk countdown living on the caller's stack (the caller
    /// blocks until it reaches zero, so the pointer outlives the task).
    /// The *pointee* is guarded by mutex_ — a cross-object relationship the
    /// analysis cannot express on a nested struct, so it stays a comment;
    /// every dereference in thread_pool.cpp is under a mutex_ guard.
    /// Distinct calls track completion independently, so concurrent callers
    /// — e.g. round-parallel GD workers dispatching data-parallel kernels —
    /// never wait on each other's chunks.
    std::size_t* remaining = nullptr;
    /// submit() tasks carry their callable by value (fn stays null and no
    /// completion is tracked — fire and forget).
    std::function<void()> detached;
  };

  void worker_loop() HTS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::vector<Task> queue_ HTS_GUARDED_BY(mutex_);
  CondVar work_ready_;
  CondVar work_done_;
  bool stop_ HTS_GUARDED_BY(mutex_) = false;
};

}  // namespace hts::util
