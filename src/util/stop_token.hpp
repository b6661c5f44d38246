#pragma once

// The one stop signal of every sampling loop: a cancel flag plus an optional
// deadline.
//
// A StopSource owns a shared flag; a StopToken observes it and may also
// carry an absolute deadline on the monotonic clock (util::monotonic_ns).
// stop_requested() is true once the source fired or the deadline passed, so
// components poll one thing at their yield points (GD iterations, harvest
// blocks, amplifier bases, solver decisions) whatever the reason for
// stopping.  A default token never stops.  A poll costs a null check,
// plus a relaxed load with a source and a clock read with a deadline.
//
// run_gd_loop and the baselines add RunOptions::budget_ms to the caller's
// token when their sampling clock starts.  A service job's token is its
// cancel source plus its deadline counted from submission, so the source's
// own flag means "cancelled".  (std::stop_token is jthread-centric and
// carries no deadline; this pair is the few lines we need.)
//
// Thread-safety: lock-free by design — the flag is a monotone one-way
// atomic (false -> true, relaxed order suffices: observers act on it at
// their next poll either way) and a token's deadline is immutable, so there
// is no mutex to annotate and Clang's capability analysis has nothing to
// track here.  The shared_ptr control block makes token lifetime safe
// across threads on its own.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/timer.hpp"

namespace hts::util {

class StopToken {
 public:
  /// Default token: never stops (no source, no deadline).
  StopToken() = default;

  /// This token plus a deadline `budget_ms` from now.  A deadline the token
  /// already carries stays when it is earlier; budget_ms <= 0, or a budget
  /// past the clock's range, adds none.
  [[nodiscard]] StopToken with_budget(double budget_ms) const {
    StopToken token = *this;
    const std::uint64_t now_ns = monotonic_ns();
    const double budget_ns = budget_ms * 1e6;
    if (budget_ns > 0.0 &&
        budget_ns < static_cast<double>(kNoDeadline - now_ns)) {
      token.deadline_ns_ = std::min(
          deadline_ns_, now_ns + static_cast<std::uint64_t>(budget_ns));
    }
    return token;
  }

  /// True once the source fired or the deadline passed.
  [[nodiscard]] bool stop_requested() const {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) return true;
    return deadline_ns_ != kNoDeadline && monotonic_ns() >= deadline_ns_;
  }

  /// Milliseconds until the deadline (negative once it passed); 1e18 when
  /// the token carries none.
  [[nodiscard]] double remaining_ms() const {
    if (deadline_ns_ == kNoDeadline) return 1e18;
    return (static_cast<double>(deadline_ns_) -
            static_cast<double>(monotonic_ns())) *
           1e-6;
  }

  /// True when a stop could ever arrive (a source or a deadline).
  [[nodiscard]] bool stop_possible() const {
    return flag_ != nullptr || deadline_ns_ != kNoDeadline;
  }

 private:
  friend class StopSource;
  static constexpr std::uint64_t kNoDeadline =
      std::numeric_limits<std::uint64_t>::max();

  explicit StopToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
  std::uint64_t deadline_ns_ = kNoDeadline;
};

class StopSource {
 public:
  StopSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() { flag_->store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool stop_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  /// A token observing this source (no deadline); outlives the source
  /// safely (shared ownership of the flag).
  [[nodiscard]] StopToken token() const { return StopToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace hts::util
