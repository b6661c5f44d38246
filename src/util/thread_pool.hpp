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

  /// Global pool sized to the machine; shared by the engine's parts, the
  /// harvester's block split and any other data-parallel kernel.
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
