#pragma once

// Capability-annotated wrappers over std::mutex / std::condition_variable /
// std::lock_guard, so Clang's -Wthread-safety analysis (see
// thread_annotations.hpp) can prove the repo's lock discipline on every
// build.  The std types carry no capability attributes, so code using them
// directly is invisible to the analysis; these wrappers are drop-in
// replacements with identical semantics and zero overhead.
//
// CondVar::wait takes the Mutex directly (not a unique_lock) and is
// annotated HTS_REQUIRES(mu): the caller must already hold mu, the wait
// releases and re-acquires it internally via the adopt/release dance, and
// the capability is held again on return — exactly the state the analysis
// assumes, so no HTS_NO_THREAD_SAFETY_ANALYSIS escape hatch is needed
// anywhere.  Predicate waits are written as explicit loops at the call
// sites (`while (!pred()) cv.wait(mu);`): a predicate lambda would be
// analyzed as a separate unannotated function and its guarded-field reads
// would (rightly) warn.
//
// Lock-ordering contract (checked by TSan at runtime and by review; the
// analysis cannot express cross-object order):
//
//   1. service::Server::mutex_  ->  detail::Job::mutex      (never reverse)
//   2. service::PlanCache: Entry::build_mutex -> PlanCache::mutex_ (stats
//      update after a compile); eviction holds only the cache mutex and
//      reads the entry's atomic `built` flag, so the reverse edge never
//      forms.
//   3. sampler::ShardedUniqueBank shard mutexes are leaves: at most one
//      shard is held at a time and nothing is acquired under it.
//   4. util::ThreadPool::mutex_ is a leaf: parallel_for chunks run with no
//      pool lock held.  The service's worker loops run on the Server's own
//      threads, not on a pool.
//   5. telemetry::TraceSink's per-thread buffer mutexes are leaves: trace
//      sites may fire while holding any of the locks above (e.g. a span
//      under Server::mutex_), and nothing is ever acquired under them.
//      TraceSink's drain path takes the sink mutex and then one buffer
//      mutex at a time; record paths take only the calling thread's own
//      buffer mutex, so the two never deadlock.

#include <condition_variable>
#include <chrono>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace hts::util {

class CondVar;

/// std::mutex with the `capability` attribute: fields annotated
/// HTS_GUARDED_BY(mu) can only be touched while mu is held.
class HTS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HTS_ACQUIRE() { mu_.lock(); }
  void unlock() HTS_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() HTS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock over Mutex (std::lock_guard analogue); the analysis tracks
/// the capability as held for the guard's lifetime.
class HTS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) HTS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() HTS_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex at each wait.  wait/wait_for_ms
/// release and re-acquire the caller's already-held capability, matching
/// the HTS_REQUIRES annotation on both ends of the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken); mu is held on entry and
  /// on return.  Callers re-check their predicate in a loop.
  void wait(Mutex& mu) HTS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's capability still owns the mutex
  }

  /// Bounded wait; returns false on timeout.  mu is held on entry and on
  /// return either way.
  bool wait_for_ms(Mutex& mu, double timeout_ms) HTS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms));
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hts::util
