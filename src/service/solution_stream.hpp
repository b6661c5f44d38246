#pragma once

// Per-request delivery channel for harvested unique solutions.
//
// The worker running a job's slice pushes each newly banked assignment in
// harvest order; the client consumes from any thread via the blocking
// iterator (next) or — configured at submit time — a synchronous callback
// that bypasses the buffer entirely.  A bounded stream applies
// backpressure: when the buffer is full, push() blocks the job's worker
// until the consumer takes an item or the job's stop token fires (cancel
// or deadline), so a slow consumer throttles exactly its own job and
// nothing else (the fleet's other workers keep scheduling other requests).
//
// Delivery order is the job's deterministic harvest order: rounds execute
// sequentially per job and each round's accept phase is serial, so for a
// fixed (formula, seed, config) the stream contents — including order —
// are identical under any worker-fleet size.
//
// Shutdown semantics: whatever ends a job — completion, deadline, cancel,
// cap, UNSAT, failure (kFailed), admission rejection (kRejected), or server
// shutdown/destruction — its finalize path closes the stream, and close()
// wakes every blocked consumer AND producer.  A consumer blocked in next()
// therefore always returns (draining the buffer first, then end-of-stream);
// it can never hang on a job that will produce nothing more.  Push after
// close is dropped (returns false), so a late producer cannot resurrect a
// stream its consumers already saw end.
//
// Lock discipline (machine-checked under Clang -Wthread-safety): mutex_
// guards the buffer and every flag; it is a leaf lock — the callback runs
// outside it, and nothing else is acquired under it.

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "cnf/types.hpp"
#include "util/mutex.hpp"
#include "util/stop_token.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace hts::service {

class SolutionStream {
 public:
  /// capacity 0 = unbounded buffer (push never blocks).  When `callback` is
  /// set the stream is in callback mode: push invokes it inline and the
  /// buffer/capacity machinery is bypassed.
  explicit SolutionStream(
      std::size_t capacity = 0,
      std::function<void(const cnf::Assignment&)> callback = {})
      : capacity_(capacity), callback_(std::move(callback)) {}

  // ---- producer side (the job's worker) ------------------------------------

  /// Delivers one assignment.  Blocks while a bounded buffer is full, until
  /// space opens or `stop` fires (the job's cancel or deadline).  Returns
  /// false when the assignment was dropped (consumer cancelled, or stopped
  /// while waiting); the job treats that as "stop delivering", not an error.
  bool push(cnf::Assignment&& assignment, const util::StopToken& stop)
      HTS_EXCLUDES(mutex_) {
    if (callback_) {
      {
        util::LockGuard lock(mutex_);
        if (cancelled_) return false;
        ++delivered_;
      }
      callback_(assignment);
      return true;
    }
    // Backpressure stall time runs from the first full-buffer check to the
    // push (or drop), on the process monotonic clock; only a push that
    // finds the buffer full reads the clock.
    double stall_begin_ms = -1.0;
    util::LockGuard lock(mutex_);
    while (capacity_ != 0 && queue_.size() >= capacity_ && !cancelled_ &&
           !closed_) {
      if (stop.stop_requested()) break;
      if (stall_begin_ms < 0.0) stall_begin_ms = util::monotonic_ms();
      // Bounded wait so a cancel or deadline that lands while we sleep is
      // noticed promptly even if no consumer ever wakes us.
      space_cv_.wait_for_ms(mutex_, 10.0);
    }
    if (stall_begin_ms >= 0.0) {
      stall_ms_ += util::monotonic_ms() - stall_begin_ms;
    }
    const bool full = capacity_ != 0 && queue_.size() >= capacity_;
    if (cancelled_ || closed_ || full) return false;
    queue_.push_back(std::move(assignment));
    ++delivered_;
    item_cv_.notify_one();
    return true;
  }

  /// No more items will be pushed (job terminal).  Wakes blocked consumers
  /// (who drain the buffer and then see end-of-stream) and any producer
  /// still blocked on backpressure (whose pushes now drop).
  void close() HTS_EXCLUDES(mutex_) {
    {
      util::LockGuard lock(mutex_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  // ---- consumer side (the client) ------------------------------------------

  /// Blocking iterator: waits for the next assignment.  Returns false when
  /// the stream is closed (job terminal) and drained — the end of the
  /// stream.
  bool next(cnf::Assignment& out) HTS_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    while (queue_.empty() && !closed_ && !cancelled_) item_cv_.wait(mutex_);
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    space_cv_.notify_one();
    return true;
  }

  /// Consumer abandons the stream: the buffer is discarded and every future
  /// push is dropped (the job itself keeps running — cancel the JobHandle
  /// to stop the work too).
  void cancel() HTS_EXCLUDES(mutex_) {
    {
      util::LockGuard lock(mutex_);
      cancelled_ = true;
      queue_.clear();
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const HTS_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    return closed_;
  }
  /// Assignments accepted into the stream (buffered or callback-delivered).
  [[nodiscard]] std::size_t delivered() const HTS_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    return delivered_;
  }
  /// Milliseconds push() spent blocked on a full buffer.
  [[nodiscard]] double stall_ms() const HTS_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    return stall_ms_;
  }

 private:
  const std::size_t capacity_;
  const std::function<void(const cnf::Assignment&)> callback_;
  mutable util::Mutex mutex_;
  util::CondVar item_cv_;
  util::CondVar space_cv_;
  std::deque<cnf::Assignment> queue_ HTS_GUARDED_BY(mutex_);
  std::size_t delivered_ HTS_GUARDED_BY(mutex_) = 0;
  double stall_ms_ HTS_GUARDED_BY(mutex_) = 0.0;
  bool closed_ HTS_GUARDED_BY(mutex_) = false;
  bool cancelled_ HTS_GUARDED_BY(mutex_) = false;
};

}  // namespace hts::service
