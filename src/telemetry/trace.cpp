#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/env.hpp"

namespace hts::telemetry {

namespace {

// Per-thread ring capacity: spans fire at phase boundaries (a handful per
// slice), so 128K events cover hours of serving.
constexpr std::size_t kRingCapacity = 131072;

std::string json_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

/// Chrome trace ts/dur are microseconds; keep ns precision as a fraction.
std::string format_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::atomic<bool> detail::g_trace_enabled{hts::util::env_int("HTS_TRACE", 0) !=
                                          0};

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

TraceSink& TraceSink::global() {
  static TraceSink* instance = new TraceSink();  // leaked by design
  return *instance;
}

TraceSink::ThreadBuffer& TraceSink::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    util::LockGuard lock(mutex_);
    buffer = std::make_shared<ThreadBuffer>(next_tid_++, kRingCapacity);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void TraceSink::record(const TraceEvent& event) {
  ThreadBuffer& buf = local_buffer();
  util::LockGuard lock(buf.mutex);
  if (buf.events.size() >= buf.capacity) {
    ++buf.dropped;  // drop-newest: never block or reorder the hot path
    return;
  }
  TraceEvent e = event;
  e.tid = buf.tid;
  buf.events.push_back(e);
}

void TraceSink::complete(const char* name, const char* cat,
                         std::uint64_t begin_ns, std::uint64_t end_ns) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = TraceEvent::Phase::kComplete;
  e.ts_ns = begin_ns;
  e.dur_ns = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  record(e);
}

void TraceSink::async_begin(const char* name, const char* cat,
                            std::uint64_t id, std::uint64_t ts_ns) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = TraceEvent::Phase::kAsyncBegin;
  e.ts_ns = ts_ns;
  e.id = id;
  record(e);
}

void TraceSink::async_end(const char* name, const char* cat, std::uint64_t id,
                          std::uint64_t ts_ns) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = TraceEvent::Phase::kAsyncEnd;
  e.ts_ns = ts_ns;
  e.id = id;
  record(e);
}

void TraceSink::async_instant(const char* name, const char* cat,
                              std::uint64_t id, std::uint64_t ts_ns) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = TraceEvent::Phase::kAsyncInstant;
  e.ts_ns = ts_ns;
  e.id = id;
  record(e);
}

void TraceSink::set_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  util::LockGuard lock(buf.mutex);
  buf.thread_name = name;
}

std::vector<TraceEvent> TraceSink::snapshot_events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    util::LockGuard lock(mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    util::LockGuard lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::string TraceSink::render_chrome_json() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    util::LockGuard lock(mutex_);
    buffers = buffers_;
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t total_dropped = 0;
  for (const auto& buf : buffers) {
    util::LockGuard lock(buf->mutex);
    total_dropped += buf->dropped;
    if (!buf->thread_name.empty()) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << buf->tid << ",\"args\":{\"name\":\""
          << json_escape(buf->thread_name) << "\"}}";
    }
    for (const TraceEvent& e : buf->events) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
          << json_escape(*e.cat ? e.cat : "hts") << "\",\"pid\":1,\"tid\":"
          << e.tid << ",\"ts\":" << format_us(e.ts_ns);
      switch (e.phase) {
        case TraceEvent::Phase::kComplete:
          out << ",\"ph\":\"X\",\"dur\":" << format_us(e.dur_ns);
          break;
        case TraceEvent::Phase::kAsyncBegin:
          out << ",\"ph\":\"b\",\"id\":" << e.id;
          break;
        case TraceEvent::Phase::kAsyncEnd:
          out << ",\"ph\":\"e\",\"id\":" << e.id;
          break;
        case TraceEvent::Phase::kAsyncInstant:
          out << ",\"ph\":\"n\",\"id\":" << e.id;
          break;
      }
      out << '}';
    }
  }
  out << "],\"otherData\":{\"clock\":\"monotonic_ns\",\"dropped\":"
      << total_dropped << "}}";
  return out.str();
}

bool TraceSink::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << render_chrome_json();
  return static_cast<bool>(out);
}

std::uint64_t TraceSink::dropped() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    util::LockGuard lock(mutex_);
    buffers = buffers_;
  }
  std::uint64_t total = 0;
  for (const auto& buf : buffers) {
    util::LockGuard lock(buf->mutex);
    total += buf->dropped;
  }
  return total;
}

void TraceSink::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    util::LockGuard lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& buf : buffers) {
    util::LockGuard lock(buf->mutex);
    buf->events.clear();
    buf->thread_name.clear();
    buf->dropped = 0;
  }
}

}  // namespace hts::telemetry
