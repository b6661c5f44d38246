#pragma once

// Summary statistics the benchmark reports: percentiles with their sample
// counts, and ratios that keep their base.  Header-only so the unit test
// (stats_test.cpp) builds without the sampler library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// closest ranks (numpy's default, Python's statistics.quantiles "inclusive"
/// method).  0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// How many of n samples lie beyond the p-th percentile: n - ceil(n * p/100).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto at_or_below = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
  return n > at_or_below ? n - at_or_below : 0;
}

/// The highest of the usual tail percentiles that still has at least
/// `min_beyond` samples beyond it, or 50 (the median) when none does.  A
/// tail read off fewer samples than that is one or two outliers, not a
/// percentile.
[[nodiscard]] inline double tail_percentile(std::size_t n,
                                            std::size_t min_beyond = 10) {
  constexpr double kCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  for (const double p : kCandidates) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 50.0;
}

/// A ratio that remembers its numerator and denominator, so every printed
/// ratio can show its base.  value() is 0 when the denominator is 0.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  [[nodiscard]] double value() const { return den != 0.0 ? num / den : 0.0; }

  /// "num/den = value", e.g. "3/120 = 0.025".
  [[nodiscard]] std::string str() const {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%.6g/%.6g = %.6g", num, den,
                  value());
    return buffer;
  }
};

/// A per-second rate: count per `seconds` of wall time.
[[nodiscard]] inline Ratio rate(double count, double seconds) {
  return Ratio{count, seconds};
}

/// printf into a std::string, for metric notes.
template <typename... Values>
[[nodiscard]] std::string format(const char* pattern, Values... values) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), pattern, values...);
  return buffer;
}

}  // namespace perfbench
