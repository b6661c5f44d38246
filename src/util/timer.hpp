#pragma once

// Wall-clock timing used by the sampling harnesses and benches.
//
// Every duration this repo reports — Timer here, StopToken deadlines, the
// *_ms fields in JobStats/GdLoopExtras, and the telemetry span/metric layer —
// derives from the single monotonic clock below, so the two bookkeeping
// paths (ad-hoc stats and trace spans) can never disagree about when
// something happened.

#include <chrono>
#include <cstdint>

namespace hts::util {

/// Nanoseconds on the process-wide monotonic clock.  The origin is the first
/// call in the process (a function-local static), so values are small,
/// strictly comparable across threads, and safe to difference.
[[nodiscard]] inline std::uint64_t monotonic_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin)
          .count());
}

/// Same clock in microseconds (Chrome trace-event `ts` units).
[[nodiscard]] inline double monotonic_us() {
  return static_cast<double>(monotonic_ns()) * 1e-3;
}

/// Same clock in milliseconds (the unit every *_ms stats field uses).
[[nodiscard]] inline double monotonic_ms() {
  return static_cast<double>(monotonic_ns()) * 1e-6;
}

class Timer {
 public:
  Timer() : start_ns_(monotonic_ns()) {}

  void reset() { start_ns_ = monotonic_ns(); }

  [[nodiscard]] double seconds() const {
    return static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

  [[nodiscard]] std::uint64_t nanoseconds() const {
    return monotonic_ns() - start_ns_;
  }

  /// The monotonic_ns() stamp this timer (re)started at.
  [[nodiscard]] std::uint64_t start_ns() const { return start_ns_; }

 private:
  std::uint64_t start_ns_;
};

}  // namespace hts::util
