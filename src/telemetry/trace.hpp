#pragma once

// Span tracing: fixed-capacity per-thread ring buffers of trace events on
// the process monotonic clock (util::monotonic_ns), drained to Chrome
// trace-event JSON loadable in Perfetto.  Layout contract:
//   - one track per worker thread (ph:"X" complete events recorded on
//     whichever thread did the work), and
//   - one async track per job (ph:"b"/"e"/"n" nestable events, cat "job",
//     id = the job id), covering submit -> finalize with nested queue /
//     compile / cache_wait / slice / deliver phases.
//
// Record-path contract: tracing is off by default, HTS_TRACE=1 arms it at
// process start and set_trace_enabled() at run time.  Every site is gated
// on telemetry::trace_enabled() (one relaxed load), event names are static
// strings (no allocation or formatting on the hot path), and recording
// takes only the calling thread's own buffer mutex — a leaf lock, safe
// under any of the repo's other locks (util/mutex.hpp item 5).  When a ring
// fills the newest events are dropped and counted, never blocking.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::telemetry {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// One relaxed load — the whole cost of a disabled record site.
[[nodiscard]] inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on);

struct TraceEvent {
  enum class Phase : std::uint8_t {
    kComplete,      // ph:"X"  duration on the recording thread's track
    kAsyncBegin,    // ph:"b"  nestable async begin   (cat+id keyed)
    kAsyncEnd,      // ph:"e"  nestable async end
    kAsyncInstant,  // ph:"n"  nestable async instant
  };
  const char* name = "";  // static string; never freed
  const char* cat = "";   // static string; async events key on (cat, id)
  Phase phase = Phase::kComplete;
  std::uint64_t ts_ns = 0;   // util::monotonic_ns at the event
  std::uint64_t dur_ns = 0;  // kComplete only
  std::uint64_t id = 0;      // async track id (job id)
  std::uint32_t tid = 0;     // recording thread's stable trace tid
};

class TraceSink {
 public:
  /// The process-wide sink.  Leaks on purpose: record sites may run during
  /// static destruction.
  static TraceSink& global();

  // Record paths: callers gate on telemetry::trace_enabled() first.
  void complete(const char* name, const char* cat, std::uint64_t begin_ns,
                std::uint64_t end_ns);
  void async_begin(const char* name, const char* cat, std::uint64_t id,
                   std::uint64_t ts_ns);
  void async_end(const char* name, const char* cat, std::uint64_t id,
                 std::uint64_t ts_ns);
  void async_instant(const char* name, const char* cat, std::uint64_t id,
                     std::uint64_t ts_ns);

  /// Names the calling thread's track in the exported trace (ph:"M"
  /// thread_name metadata), e.g. "worker-3".
  void set_thread_name(const std::string& name);

  /// Merged snapshot of all threads' events, sorted by timestamp; for
  /// C++-side assertions (nesting, monotonicity) without JSON parsing.
  [[nodiscard]] std::vector<TraceEvent> snapshot_events() const;

  /// Chrome trace-event JSON ({"traceEvents":[...], "otherData":{...}}).
  [[nodiscard]] std::string render_chrome_json() const;
  /// Renders to a file; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  /// Events dropped because a per-thread ring filled (0 in healthy runs;
  /// exported in otherData so tooling can distrust truncated traces).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drops all recorded events and thread names; rings and tids survive so
  /// cached thread-local buffers stay valid (tests isolate scenarios).
  void clear();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

 private:
  TraceSink() = default;

  /// Per-thread ring.  The owning thread appends under `mutex`; drains
  /// take the sink mutex_ then one buffer mutex at a time.
  struct ThreadBuffer {
    explicit ThreadBuffer(std::uint32_t tid_in, std::size_t capacity_in)
        : tid(tid_in), capacity(capacity_in) {
      events.reserve(capacity);
    }
    const std::uint32_t tid;
    const std::size_t capacity;
    mutable util::Mutex mutex;
    std::vector<TraceEvent> events HTS_GUARDED_BY(mutex);
    std::string thread_name HTS_GUARDED_BY(mutex);
    std::uint64_t dropped HTS_GUARDED_BY(mutex) = 0;
  };

  ThreadBuffer& local_buffer();
  void record(const TraceEvent& event);

  mutable util::Mutex mutex_;
  // shared_ptr so events survive thread exit until the next clear().
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ HTS_GUARDED_BY(mutex_);
  std::uint32_t next_tid_ HTS_GUARDED_BY(mutex_) = 1;
};

}  // namespace hts::telemetry
