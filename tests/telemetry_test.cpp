// Tests for the telemetry subsystem: sharded counter/histogram exactness
// under the thread pool, snapshot-while-writing safety (the TSan CI job
// runs this binary), Prometheus/JSON export shape, Chrome-trace event
// well-formedness (monotone timestamps, balanced per-job async spans,
// submit -> finalize coverage), the hard determinism contract (solution
// streams bit-identical with telemetry on and off), the plan-cache
// compile-billing fix (compile_ms charged once, waiters billed as
// cache_wait), and the chaos interplay (injected faults and retries appear
// as trace events named after their seam).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cnf/dimacs.hpp"
#include "service/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hts::telemetry {
namespace {

// Flags are process globals; every test that flips them restores the
// previous state so test order never matters (and the default-off contract
// holds for the rest of the suite).
class TelemetryGuard {
 public:
  TelemetryGuard(bool metrics, bool trace)
      : metrics_before_(metrics_enabled()), trace_before_(trace_enabled()) {
    set_metrics_enabled(metrics);
    set_trace_enabled(trace);
    Registry::global().reset_values();
    TraceSink::global().clear();
  }
  ~TelemetryGuard() {
    set_metrics_enabled(metrics_before_);
    set_trace_enabled(trace_before_);
  }

 private:
  bool metrics_before_;
  bool trace_before_;
};

cnf::Formula small_formula() {
  return cnf::parse_dimacs_string("p cnf 7 3\n1 2 0\n3 4 0\n-1 -3 0\n");
}

service::SamplingRequest small_request(std::size_t target = 20,
                                       std::uint64_t seed = 123) {
  service::SamplingRequest request;
  request.formula = small_formula();
  request.seed = seed;
  request.target_uniques = target;
  request.config.batch = 128;
  request.config.iterations = 3;
  return request;
}

std::vector<cnf::Assignment> collect_stream(const service::JobHandle& handle) {
  std::vector<cnf::Assignment> solutions;
  cnf::Assignment solution;
  while (handle.stream().next(solution)) {
    solutions.push_back(std::move(solution));
  }
  return solutions;
}

/// Snapshot entry lookup by metric name (first label set wins).
const MetricSnapshot* find_metric(const std::vector<MetricSnapshot>& all,
                                  const std::string& name) {
  for (const MetricSnapshot& m : all) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// --- registry primitives -----------------------------------------------------

TEST(TelemetryMetrics, ConcurrentCounterAndHistogramExactness) {
  Registry& registry = Registry::global();
  Counter& counter = registry.counter("test_exact_total");
  Histogram& histogram =
      registry.histogram("test_exact_hist", {1.0, 10.0, 100.0});
  counter.reset();
  histogram.reset();

  constexpr std::size_t kEvents = 200000;
  util::ThreadPool pool(4);
  pool.parallel_for(kEvents, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      counter.increment();
      histogram.observe(static_cast<double>(i % 200));
    }
  });

  EXPECT_EQ(counter.value(), kEvents);
  EXPECT_EQ(histogram.count(), kEvents);
  const std::vector<std::uint64_t> buckets = histogram.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite bounds + the +inf bucket
  // i % 200 is uniform: per cycle of 200 observations, 2 land <= 1
  // (i = 0, 1), 9 more in (1, 10], 90 more in (10, 100], 99 above.
  EXPECT_EQ(buckets[0], kEvents / 200 * 2);
  EXPECT_EQ(buckets[1], kEvents / 200 * 9);
  EXPECT_EQ(buckets[2], kEvents / 200 * 90);
  EXPECT_EQ(buckets[3], kEvents / 200 * 99);
  EXPECT_EQ(buckets[0] + buckets[1] + buckets[2] + buckets[3], kEvents);
}

TEST(TelemetryMetrics, SnapshotWhileWritingIsSafeAndMonotone) {
  Registry& registry = Registry::global();
  Counter& counter = registry.counter("test_snapshot_total");
  Histogram& histogram = registry.histogram("test_snapshot_hist", {0.5});
  counter.reset();
  histogram.reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter.increment();
        histogram.observe(1.0);
      }
    });
  }
  // Concurrent snapshots must be safe (TSan pins this) and totals must be
  // monotone: a snapshot can only ever see more events than the last.
  std::uint64_t last_count = 0;
  double last_value = 0.0;
  for (int i = 0; i < 50; ++i) {
    const std::vector<MetricSnapshot> snap = registry.snapshot();
    const MetricSnapshot* c = find_metric(snap, "test_snapshot_total");
    const MetricSnapshot* h = find_metric(snap, "test_snapshot_hist");
    ASSERT_NE(c, nullptr);
    ASSERT_NE(h, nullptr);
    EXPECT_GE(c->value, last_value);
    EXPECT_GE(h->count, last_count);
    last_value = c->value;
    last_count = h->count;
    (void)registry.render_prometheus();
    (void)registry.snapshot_json();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter.value(), histogram.count());
}

TEST(TelemetryMetrics, GaugeTracksLevelAndHistogramPercentiles) {
  Registry& registry = Registry::global();
  Gauge& gauge = registry.gauge("test_level");
  gauge.reset();
  gauge.add(5);
  gauge.sub(2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.set(-7);
  EXPECT_EQ(gauge.value(), -7);

  Histogram& histogram =
      registry.histogram("test_pct_hist", {10.0, 20.0, 50.0, 100.0});
  histogram.reset();
  for (int i = 1; i <= 100; ++i) histogram.observe(static_cast<double>(i));
  // Uniform 1..100: p50 lands in the (20, 50] bucket, p99 in (50, 100].
  EXPECT_GT(histogram.percentile(50.0), 20.0);
  EXPECT_LE(histogram.percentile(50.0), 50.0);
  EXPECT_GT(histogram.percentile(99.0), 50.0);
  EXPECT_LE(histogram.percentile(99.0), 100.0);
  EXPECT_GE(histogram.percentile(0.0), 0.0);
}

TEST(TelemetryMetrics, PrometheusRenderingShape) {
  Registry& registry = Registry::global();
  registry.counter("test_render_total", {{"client", "a\"b\\c\nd"}}).add(3);
  registry.gauge("test_render_depth").set(2);
  registry.histogram("test_render_ms", {0.1, 1.0}).observe(0.5);
  const std::string text = registry.render_prometheus();

  EXPECT_NE(text.find("# TYPE test_render_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_render_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_render_ms histogram"), std::string::npos);
  // Label values escape backslash, quote, and newline per the exposition
  // format.
  EXPECT_NE(text.find("client=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  // Histograms expand to cumulative buckets with a +Inf catch-all plus
  // _sum/_count, and bounds render shortest-round-trip ("0.1", not
  // "0.10000000000000001").
  EXPECT_NE(text.find("test_render_ms_bucket{le=\"0.1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("test_render_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_render_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_render_ms_count 1"), std::string::npos);

  const std::string json = Registry::global().snapshot_json();
  EXPECT_NE(json.find("\"name\":\"test_render_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

// --- trace sink --------------------------------------------------------------

TEST(TelemetryTrace, EventsAreTimestampSortedAndJsonWellFormed) {
  TelemetryGuard guard(/*metrics=*/false, /*trace=*/true);
  TraceSink& sink = TraceSink::global();
  sink.set_thread_name("main-test");
  const std::uint64_t t0 = util::monotonic_ns();
  sink.complete("phase_a", "test", t0, t0 + 1000);
  sink.async_begin("work", "test", 42, t0 + 100);
  sink.async_instant("mark", "test", 42, t0 + 500);
  sink.async_end("work", "test", 42, t0 + 900);
  std::thread other([&] { sink.instant("other_thread", "test"); });
  other.join();

  const std::vector<TraceEvent> events = sink.snapshot_events();
  ASSERT_GE(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);  // merged sort order
  }
  // Two distinct recording threads got two distinct tids.
  EXPECT_NE(events.front().tid, 0u);
  bool saw_second_tid = false;
  for (const TraceEvent& e : events) {
    if (e.tid != events.front().tid) saw_second_tid = true;
  }
  EXPECT_TRUE(saw_second_tid);

  const std::string json = sink.render_chrome_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("main-test"), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"monotonic_ns\""), std::string::npos);
  EXPECT_EQ(sink.dropped(), 0u);
}

// --- service integration -----------------------------------------------------

TEST(TelemetryService, FleetRunEmitsMetricsAndBalancedJobSpans) {
  TelemetryGuard guard(/*metrics=*/true, /*trace=*/true);
  constexpr std::size_t kJobs = 4;
  std::vector<service::JobHandle> handles;
  {
    service::Server server({.n_workers = 2});
    for (std::size_t j = 0; j < kJobs; ++j) {
      handles.push_back(server.submit(small_request(20, 100 + j)));
    }
    for (const service::JobHandle& handle : handles) {
      EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
    }

    // Live pull: the snapshot's Prometheus text cross-checks JobStats.
    const service::StatsSnapshot snapshot = server.stats_snapshot();
    EXPECT_EQ(snapshot.server.completed, kJobs);
    EXPECT_EQ(snapshot.queue_depth, 0u);
    EXPECT_NE(snapshot.metrics_prometheus.find("hts_scheduler_slice_ms"),
              std::string::npos);
    EXPECT_NE(snapshot.metrics_json.find("hts_plan_cache_hits_total"),
              std::string::npos);
  }

  const std::vector<MetricSnapshot> snap = Registry::global().snapshot();
  const MetricSnapshot* slices = find_metric(snap, "hts_scheduler_slice_ms");
  ASSERT_NE(slices, nullptr);
  EXPECT_GE(slices->count, kJobs);  // every job ran at least one slice
  const MetricSnapshot* delivered =
      find_metric(snap, "hts_stream_delivered_total");
  ASSERT_NE(delivered, nullptr);
  std::uint64_t delivered_stats = 0;
  for (const service::JobHandle& handle : handles) {
    delivered_stats += handle.stats().delivered;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(delivered->value), delivered_stats);
  const MetricSnapshot* rounds = find_metric(snap, "hts_gd_rounds_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_GT(rounds->value, 0.0);
  const MetricSnapshot* finalized =
      find_metric(snap, "hts_jobs_finalized_total");
  ASSERT_NE(finalized, nullptr);
  EXPECT_EQ(finalized->labels,
            Labels({{"status", "completed"}}));
  EXPECT_EQ(static_cast<std::uint64_t>(finalized->value), kJobs);
  const MetricSnapshot* depth = find_metric(snap, "hts_scheduler_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0.0);  // every enqueue was matched by a pop

  // Per-job async tracks: balanced nesting, "job" covers submit -> finalize.
  const std::vector<TraceEvent> events = TraceSink::global().snapshot_events();
  std::map<std::uint64_t, std::vector<const TraceEvent*>> per_job;
  for (const TraceEvent& e : events) {
    if (std::string(e.cat) == "job") per_job[e.id].push_back(&e);
  }
  EXPECT_EQ(per_job.size(), kJobs);
  for (const auto& [id, track] : per_job) {
    ASSERT_GE(track.size(), 2u);
    EXPECT_STREQ(track.front()->name, "job");
    EXPECT_EQ(track.front()->phase, TraceEvent::Phase::kAsyncBegin);
    EXPECT_STREQ(track.back()->name, "job");
    EXPECT_EQ(track.back()->phase, TraceEvent::Phase::kAsyncEnd);
    int depth_now = 0;
    std::map<std::string, int> open;
    bool saw_status = false;
    for (const TraceEvent* e : track) {
      if (e->phase == TraceEvent::Phase::kAsyncBegin) {
        ++depth_now;
        ++open[e->name];
      } else if (e->phase == TraceEvent::Phase::kAsyncEnd) {
        --depth_now;
        --open[e->name];
        EXPECT_GE(open[e->name], 0) << "unmatched end of " << e->name;
      } else if (std::string(e->name) == "completed") {
        saw_status = true;
      }
      EXPECT_GE(depth_now, 0);
    }
    EXPECT_EQ(depth_now, 0) << "job " << id << " track left spans open";
    EXPECT_TRUE(saw_status) << "job " << id << " missing terminal status";
  }
  EXPECT_EQ(TraceSink::global().dropped(), 0u);
}

TEST(TelemetryService, StreamsBitIdenticalWithTelemetryOnAndOff) {
  constexpr std::size_t kJobs = 3;
  auto run_fleet = [&] {
    std::vector<std::vector<cnf::Assignment>> streams(kJobs);
    service::Server server({.n_workers = 2});
    std::vector<service::JobHandle> handles;
    for (std::size_t j = 0; j < kJobs; ++j) {
      handles.push_back(server.submit(small_request(25, 7 * (j + 1))));
    }
    for (std::size_t j = 0; j < kJobs; ++j) {
      EXPECT_EQ(handles[j].wait(), service::JobStatus::kCompleted);
      streams[j] = collect_stream(handles[j]);
    }
    return streams;
  };

  std::vector<std::vector<cnf::Assignment>> off_streams;
  {
    TelemetryGuard guard(/*metrics=*/false, /*trace=*/false);
    off_streams = run_fleet();
  }
  std::vector<std::vector<cnf::Assignment>> on_streams;
  {
    TelemetryGuard guard(/*metrics=*/true, /*trace=*/true);
    on_streams = run_fleet();
  }
  // The hard contract: telemetry reads clocks and counters, never RNG or
  // ordering, so each job's delivered stream is bit-identical.
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_FALSE(off_streams[j].empty());
    EXPECT_EQ(off_streams[j], on_streams[j]) << "job " << j;
  }
}

TEST(TelemetryService, DisabledTelemetryRecordsNothing) {
  TelemetryGuard guard(/*metrics=*/false, /*trace=*/false);
  {
    service::Server server({.n_workers = 2});
    const service::JobHandle handle = server.submit(small_request());
    EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
  }
  for (const MetricSnapshot& m : Registry::global().snapshot()) {
    if (m.name.rfind("hts_", 0) != 0) continue;  // test-local metrics
    EXPECT_EQ(m.value, 0.0) << m.name;
    EXPECT_EQ(m.count, 0u) << m.name;
  }
  EXPECT_TRUE(TraceSink::global().snapshot_events().empty());
}

TEST(TelemetryService, SchedulerCountersDoNotGrowPerClient) {
  // Registry entries live for the whole process, so a per-client label
  // would grow one entry per client_id ever seen; the fleet totals carry
  // no client label.
  TelemetryGuard guard(/*metrics=*/true, /*trace=*/false);
  constexpr std::uint64_t kClients = 64;
  {
    service::Server server({.n_workers = 2});
    std::vector<service::JobHandle> handles;
    for (std::uint64_t client = 0; client < kClients; ++client) {
      service::SamplingRequest request = small_request(5, 1000 + client);
      request.client_id = client;
      handles.push_back(server.submit(std::move(request)));
    }
    for (const service::JobHandle& handle : handles) {
      EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
    }
  }
  std::size_t entries = 0;
  double admitted = 0.0;
  for (const MetricSnapshot& m : Registry::global().snapshot()) {
    if (m.name != "hts_scheduler_admitted_total") continue;
    ++entries;
    admitted += m.value;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(admitted, static_cast<double>(kClients));
}

TEST(TelemetryService, CompileBilledOnceWaitersBilledAsCacheWait) {
  TelemetryGuard guard(/*metrics=*/true, /*trace=*/false);
  // 8 jobs, one shared formula/options key: exactly one request compiles,
  // the other seven hit (some as in-flight waiters).  The compile cost must
  // be charged exactly once — waiters bill the blocked time as cache_wait,
  // not as a duplicate compile_ms (the double-accounting regression).
  constexpr std::size_t kJobs = 8;
  service::Server server({.n_workers = 4});
  std::vector<service::JobHandle> handles;
  for (std::size_t j = 0; j < kJobs; ++j) {
    handles.push_back(server.submit(small_request(15, 31 * (j + 1))));
  }
  std::size_t misses = 0;
  double billed_compile_ms = 0.0;
  for (const service::JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
    const service::JobStats stats = handle.stats();
    if (!stats.plan_cache_hit) {
      ++misses;
      EXPECT_GT(stats.compile_ms, 0.0);
      billed_compile_ms += stats.compile_ms;
    } else {
      // A hit never pays compile time, no matter how long it blocked on the
      // in-flight build; the wait is its own line item.
      EXPECT_EQ(stats.compile_ms, 0.0);
      EXPECT_GE(stats.cache_wait_ms, 0.0);
    }
  }
  EXPECT_EQ(misses, 1u);  // in-flight dedup: one compile fleet-wide

  const service::PlanCache::Stats cache = server.plan_cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, kJobs - 1);
  EXPECT_LE(cache.inflight_waits, cache.hits);
  const std::vector<MetricSnapshot> snap = Registry::global().snapshot();
  const MetricSnapshot* hits = find_metric(snap, "hts_plan_cache_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(hits->value), cache.hits);
}

TEST(TelemetryService, BackpressureStallIsMeasured) {
  TelemetryGuard guard(/*metrics=*/true, /*trace=*/false);
  service::Server server({.n_workers = 1});
  service::SamplingRequest request = small_request(10, 99);
  request.stream_capacity = 1;  // force the producer to wait on the consumer
  const service::JobHandle handle = server.submit(std::move(request));
  // Let the producer fill the 1-slot buffer and block, then drain slowly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::vector<cnf::Assignment> solutions = collect_stream(handle);
  EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
  // Delivery is everything the finishing harvest banked, >= the target.
  EXPECT_GE(solutions.size(), 10u);

  const std::vector<MetricSnapshot> snap = Registry::global().snapshot();
  const MetricSnapshot* stalls = find_metric(snap, "hts_stream_stall_ms");
  ASSERT_NE(stalls, nullptr);
  EXPECT_GT(stalls->count, 0u);
  EXPECT_GT(stalls->sum, 0.0);
  const MetricSnapshot* delivered_metric =
      find_metric(snap, "hts_stream_delivered_total");
  ASSERT_NE(delivered_metric, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered_metric->value),
            solutions.size());
}

TEST(TelemetryService, InjectedFaultsAndRetriesAppearInTraceAndMetrics) {
  TelemetryGuard guard(/*metrics=*/true, /*trace=*/true);
  service::ServerConfig config{.n_workers = 2};
  // Deterministic injector: every 3rd slice check trips a transient fault,
  // so some jobs retry and recover (max_retries default is 2).
  config.fault_spec = "slice:every=3:kind=transient";
  config.retry_backoff_ms = 1.0;
  std::vector<service::JobHandle> handles;
  service::Server server(std::move(config));
  for (std::size_t j = 0; j < 4; ++j) {
    handles.push_back(server.submit(small_request(15, 17 * (j + 1))));
  }
  std::uint64_t retries = 0;
  for (const service::JobHandle& handle : handles) {
    (void)handle.wait();
    retries += handle.stats().retries;
  }
  ASSERT_GT(retries, 0u) << "fault spec never fired; test is vacuous";

  // The injector's firings are a metric keyed by seam name...
  const std::vector<MetricSnapshot> snap = Registry::global().snapshot();
  bool saw_injection = false;
  for (const MetricSnapshot& m : snap) {
    if (m.name != "hts_fault_injections_total") continue;
    ASSERT_EQ(m.labels.size(), 1u);
    EXPECT_EQ(m.labels[0].first, "site");
    EXPECT_EQ(m.labels[0].second, "slice");
    EXPECT_GT(m.value, 0.0);
    saw_injection = true;
  }
  EXPECT_TRUE(saw_injection);
  const MetricSnapshot* retried =
      find_metric(snap, "hts_scheduler_retried_total");
  ASSERT_NE(retried, nullptr);

  // ...and every fault/retry lands on the job's async track, named after
  // the seam it hit.
  std::uint64_t fault_instants = 0;
  std::uint64_t retry_instants = 0;
  for (const TraceEvent& e : TraceSink::global().snapshot_events()) {
    if (e.phase != TraceEvent::Phase::kAsyncInstant) continue;
    if (std::string(e.name) == service::fault_sites::kSlice) ++fault_instants;
    if (std::string(e.name) == "retry") ++retry_instants;
  }
  EXPECT_GT(fault_instants, 0u);
  EXPECT_EQ(retry_instants, retries);
}

}  // namespace
}  // namespace hts::telemetry
