#pragma once

// Metric values and their Prometheus text rendering.
//
// Nothing here records events.  A metric is a view of a counter the code
// already keeps for its own accounting (ServerStats, PlanCache::Stats,
// JobStats, FaultInjector); service::Server::stats_snapshot() builds the
// list when someone asks for it and render_prometheus() formats it.  The
// one histogram a bench reads, the scheduler's slice duration, is a plain
// Histogram its owner keeps under its own lock.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hts::telemetry {

/// A label set; values must come from a fixed set (a label per client id
/// would add one series per client ever seen).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// finite buckets (Prometheus `le`); one implicit +inf bucket catches the
/// rest.  Plain counts with no synchronization: the owner guards it.
class Histogram {
 public:
  Histogram() : Histogram(std::vector<double>{}) {}
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = +inf).
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// Percentile in [0, 100] by linear interpolation inside the owning
  /// bucket (the +inf bucket reports its lower edge).  Returns 0 when
  /// empty.  Snapshot-grade accuracy, not exact order statistics.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  double sum_ = 0.0;
};

/// One exported series: a counter or gauge value, or a histogram.
struct Metric {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0.0;   // kCounter / kGauge
  Histogram histogram;  // kHistogram
};

/// Prometheus text-exposition format: one `# TYPE` line per run of equal
/// names (keep a family's series adjacent), escaped label values, shortest
/// round-trip numbers, and cumulative `_bucket{le=...}` / `_sum` / `_count`
/// lines for histograms.
[[nodiscard]] std::string render_prometheus(const std::vector<Metric>& metrics);

}  // namespace hts::telemetry
