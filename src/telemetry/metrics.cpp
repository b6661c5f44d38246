#include "telemetry/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <system_error>

namespace hts::telemetry {

// ----------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  // lower_bound: first bound >= value, i.e. Prometheus-inclusive upper
  // edges — an observation equal to a bound lands in that bound's bucket.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  ++buckets_[bucket];
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets_) total += b;
  return total;
}

double Histogram::percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t next = cumulative + buckets_[b];
    if (static_cast<double>(next) >= rank) {
      const double lo = b == 0 ? 0.0 : bounds_[b - 1];
      if (b >= bounds_.size()) return lo;  // +inf bucket: report its edge
      const double hi = bounds_[b];
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

// ---------------------------------------------------------------- Prometheus

namespace {

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::string format_double(double v) {
  // Shortest round-trip representation: "0.1" stays "0.1" in `le` labels,
  // not "0.10000000000000001".
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  return std::string(buf, end);
}

}  // namespace

std::string render_prometheus(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  const std::string* last_typed = nullptr;  // one # TYPE line per family
  for (const Metric& m : metrics) {
    const char* type = m.kind == Metric::Kind::kCounter ? "counter"
                       : m.kind == Metric::Kind::kGauge ? "gauge"
                                                        : "histogram";
    if (last_typed == nullptr || m.name != *last_typed) {
      out << "# TYPE " << m.name << ' ' << type << '\n';
      last_typed = &m.name;
    }
    if (m.kind != Metric::Kind::kHistogram) {
      out << m.name << render_labels(m.labels) << ' ' << format_double(m.value)
          << '\n';
      continue;
    }
    const Histogram& h = m.histogram;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets().size(); ++b) {
      cumulative += h.buckets()[b];
      Labels labels = m.labels;
      labels.emplace_back(
          "le", b < h.bounds().size() ? format_double(h.bounds()[b]) : "+Inf");
      out << m.name << "_bucket" << render_labels(labels) << ' ' << cumulative
          << '\n';
    }
    out << m.name << "_sum" << render_labels(m.labels) << ' '
        << format_double(h.sum()) << '\n';
    out << m.name << "_count" << render_labels(m.labels) << ' ' << cumulative
        << '\n';
  }
  return out.str();
}

}  // namespace hts::telemetry
