// Tests for the telemetry subsystem: the plain histogram and the
// Prometheus renderer, Chrome-trace event well-formedness (monotone
// timestamps, balanced per-job async spans, submit -> finalize coverage),
// the hard determinism contract (solution streams bit-identical with
// tracing on and off), the server's metrics as a view of the counters it
// keeps (every rendered value equals its source field), the plan-cache
// compile-billing fix (compile_ms charged once, waiters billed as
// cache_wait), and the chaos interplay (injected faults and retries appear
// as trace events named after their seam).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cnf/dimacs.hpp"
#include "service/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/timer.hpp"

namespace hts::telemetry {
namespace {

// The trace flag is a process global; every test that flips it restores
// the previous state so test order never matters (and the default-off
// contract holds for the rest of the suite).
class TraceGuard {
 public:
  explicit TraceGuard(bool on) : before_(trace_enabled()) {
    set_trace_enabled(on);
    TraceSink::global().clear();
  }
  ~TraceGuard() { set_trace_enabled(before_); }

 private:
  bool before_;
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

/// Prometheus sample lines keyed by series (`name{labels}`), comments
/// skipped.  Values parse back exactly: the renderer prints shortest
/// round-trip numbers.
std::map<std::string, double> parse_samples(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_TRUE(samples.emplace(line.substr(0, space),
                                std::stod(line.substr(space + 1)))
                    .second)
        << "series rendered twice: " << line;
  }
  return samples;
}

// --- histogram and renderer ---------------------------------------------------

TEST(TelemetryMetrics, HistogramBucketsAndPercentiles) {
  Histogram histogram({10.0, 20.0, 50.0, 100.0});
  EXPECT_EQ(histogram.percentile(50.0), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) histogram.observe(static_cast<double>(i));
  // Edges are inclusive (value <= le): 10 lands in the first bucket.
  EXPECT_EQ(histogram.buckets(),
            (std::vector<std::uint64_t>{10, 10, 30, 50, 0}));
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_EQ(histogram.sum(), 5050.0);
  // Uniform 1..100: p50 lands in the (20, 50] bucket, p99 in (50, 100].
  EXPECT_GT(histogram.percentile(50.0), 20.0);
  EXPECT_LE(histogram.percentile(50.0), 50.0);
  EXPECT_GT(histogram.percentile(99.0), 50.0);
  EXPECT_LE(histogram.percentile(99.0), 100.0);
  EXPECT_GE(histogram.percentile(0.0), 0.0);
}

TEST(TelemetryMetrics, PrometheusRenderingShape) {
  Histogram histogram({0.1, 1.0});
  histogram.observe(0.5);
  const std::vector<Metric> metrics = {
      {"test_render_total", {{"client", "a\"b\\c\nd"}}, Metric::Kind::kCounter,
       3.0, {}},
      {"test_render_total", {{"client", "e"}}, Metric::Kind::kCounter, 1.0, {}},
      {"test_render_depth", {}, Metric::Kind::kGauge, 2.0, {}},
      {"test_render_ms", {}, Metric::Kind::kHistogram, 0.0, histogram}};
  const std::string text = render_prometheus(metrics);

  EXPECT_NE(text.find("# TYPE test_render_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_render_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_render_ms histogram"), std::string::npos);
  // One # TYPE line per family, however many series it has.
  EXPECT_EQ(text.find("# TYPE test_render_total", text.find("counter")),
            std::string::npos);
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
  EXPECT_NE(text.find("test_render_ms_sum 0.5"), std::string::npos);
  EXPECT_NE(text.find("test_render_ms_count 1"), std::string::npos);
}

// --- trace sink --------------------------------------------------------------

TEST(TelemetryTrace, EventsAreTimestampSortedAndJsonWellFormed) {
  TraceGuard guard(/*on=*/true);
  TraceSink& sink = TraceSink::global();
  sink.set_thread_name("main-test");
  const std::uint64_t t0 = util::monotonic_ns();
  sink.complete("phase_a", "test", t0, t0 + 1000);
  sink.async_begin("work", "test", 42, t0 + 100);
  sink.async_instant("mark", "test", 42, t0 + 500);
  sink.async_end("work", "test", 42, t0 + 900);
  std::thread other(
      [&] { sink.complete("other_thread", "test", t0 + 200, t0 + 300); });
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
  TraceGuard guard(/*on=*/true);
  constexpr std::size_t kJobs = 4;
  std::vector<service::JobHandle> handles;
  {
    service::Server server({.n_workers = 2});
    for (std::size_t j = 0; j < kJobs; ++j) {
      handles.push_back(server.submit(small_request(20, 100 + j)));
    }
    std::uint64_t delivered = 0;
    for (const service::JobHandle& handle : handles) {
      EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
      delivered += handle.stats().delivered;
    }

    // Live pull: the snapshot's Prometheus text cross-checks JobStats.
    const service::StatsSnapshot snapshot = server.stats_snapshot();
    EXPECT_EQ(snapshot.server.completed, kJobs);
    EXPECT_EQ(snapshot.queue_depth, 0u);
    const std::map<std::string, double> samples =
        parse_samples(snapshot.metrics_prometheus);
    EXPECT_GE(samples.at("hts_scheduler_slice_ms_count"), kJobs);
    EXPECT_EQ(samples.at("hts_jobs_finalized_total{status=\"completed\"}"),
              kJobs);
    EXPECT_EQ(samples.at("hts_jobs_finalized_total{status=\"failed\"}"), 0.0);
    EXPECT_EQ(samples.at("hts_stream_delivered_total"), delivered);
    EXPECT_GT(samples.at("hts_gd_rounds_total"), 0.0);
    EXPECT_EQ(samples.at("hts_scheduler_queue_depth"), 0.0);
  }

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

TEST(TelemetryService, StreamsBitIdenticalWithTracingOnAndOff) {
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
    TraceGuard guard(/*on=*/false);
    off_streams = run_fleet();
  }
  std::vector<std::vector<cnf::Assignment>> on_streams;
  {
    TraceGuard guard(/*on=*/true);
    on_streams = run_fleet();
  }
  // The hard contract: tracing reads clocks, never RNG or ordering, so
  // each job's delivered stream is bit-identical.
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_FALSE(off_streams[j].empty());
    EXPECT_EQ(off_streams[j], on_streams[j]) << "job " << j;
  }
}

TEST(TelemetryService, DisabledTelemetryRecordsNothing) {
  TraceGuard guard(/*on=*/false);
  {
    service::Server server({.n_workers = 2});
    const service::JobHandle handle = server.submit(small_request());
    EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
  }
  EXPECT_TRUE(TraceSink::global().snapshot_events().empty());
}

TEST(TelemetryService, SchedulerCountersDoNotGrowPerClient) {
  // The fleet totals carry no client label: a label per client_id would
  // render one series per client ever seen.
  constexpr std::uint64_t kClients = 64;
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
  const std::string text = server.stats_snapshot().metrics_prometheus;
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> submitted;
  while (std::getline(in, line)) {
    if (line.rfind("hts_scheduler_submitted_total", 0) == 0) {
      submitted.push_back(line);
    }
  }
  ASSERT_EQ(submitted.size(), 1u) << text;
  EXPECT_EQ(submitted[0], "hts_scheduler_submitted_total 64");
  EXPECT_EQ(text.find("client"), std::string::npos);
}

TEST(TelemetryService, RenderedMetricsEqualTheirSources) {
  // A 2-worker fleet with plain, projected, amplified and fault-retried
  // jobs plus one rejected request.  Once every job is terminal, each
  // rendered series must equal the field it reads: the terminal jobs'
  // JobStats sums, ServerStats, PlanCache::Stats and FaultInjector.
  service::ServerConfig config{.n_workers = 2};
  config.plan_cache_capacity = 1;  // the second formula evicts the first
  config.fault_spec = "slice:at=1:kind=transient;stream_push:at=3:kind=transient";
  config.retry_backoff_ms = 1.0;
  service::Server server(std::move(config));
  std::vector<service::JobHandle> handles;
  // The plain job runs alone first, so its plan is built before the
  // amplified job's formula arrives and evicts it.
  handles.push_back(server.submit(small_request(20, 1)));
  ASSERT_EQ(handles[0].wait(), service::JobStatus::kCompleted);
  service::SamplingRequest projected = small_request(3, 2);
  projected.sampling_set = {0, 1, 2};
  projected.config.diversity_restart = true;
  handles.push_back(server.submit(std::move(projected)));
  service::SamplingRequest amplified = small_request(30, 3);
  amplified.formula =
      cnf::parse_dimacs_string("p cnf 8 2\n1 2 3 0\n-4 5 0\n");
  amplified.config.amplify.enabled = true;
  handles.push_back(server.submit(std::move(amplified)));
  service::SamplingRequest rejected = small_request();
  rejected.config.batch = 0;
  handles.push_back(server.submit(std::move(rejected)));

  sampler::LoopCounters jobs;
  std::uint64_t delivered = 0;
  double stall_ms = 0.0;
  std::uint64_t retries = 0;
  for (const service::JobHandle& handle : handles) {
    (void)handle.wait();
    const service::JobStats stats = handle.stats();
    jobs += stats;
    delivered += stats.delivered;
    stall_ms += handle.stream().stall_ms();
    retries += stats.retries;
  }
  const service::StatsSnapshot snapshot = server.stats_snapshot();
  const service::ServerStats& fleet = snapshot.server;
  const service::PlanCache::Stats& cache = snapshot.plan_cache;
  const util::FaultInjector& injector = server.fault_injector();
  // The workload reached every path it is meant to cover.
  EXPECT_EQ(fleet.completed, 3u);
  EXPECT_EQ(fleet.rejected, 1u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(jobs.amplified_uniques, 0u);
  EXPECT_GT(cache.evictions, 0u);
  // Sums of doubles depend on the order finalize added them in.
  EXPECT_DOUBLE_EQ(fleet.jobs.harvest_ms, jobs.harvest_ms);
  EXPECT_DOUBLE_EQ(fleet.stall_ms, stall_ms);

  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::map<std::string, double> expected = {
      {"hts_scheduler_queue_depth", 0.0},
      {"hts_scheduler_running", 0.0},
      {"hts_scheduler_submitted_total", n(handles.size())},
      {"hts_scheduler_rejected_total", n(fleet.rejected)},
      {"hts_scheduler_retried_total", n(retries)},
      {"hts_jobs_finalized_total{status=\"completed\"}", n(fleet.completed)},
      {"hts_jobs_finalized_total{status=\"deadline\"}",
       n(fleet.deadline_expired)},
      {"hts_jobs_finalized_total{status=\"cancelled\"}", n(fleet.cancelled)},
      {"hts_jobs_finalized_total{status=\"capped\"}", n(fleet.capped)},
      {"hts_jobs_finalized_total{status=\"unsat\"}", n(fleet.unsat)},
      {"hts_jobs_finalized_total{status=\"failed\"}", n(fleet.failed)},
      {"hts_jobs_finalized_total{status=\"rejected\"}", n(fleet.rejected)},
      {"hts_plan_cache_hits_total", n(cache.hits)},
      {"hts_plan_cache_misses_total", n(cache.misses)},
      {"hts_plan_cache_evictions_total", n(cache.evictions)},
      {"hts_plan_cache_inflight_waits_total", n(cache.inflight_waits)},
      {"hts_gd_rounds_total", n(jobs.rounds)},
      {"hts_gd_iterations_total", n(jobs.gd_iterations)},
      {"hts_gd_restarts_total{kind=\"solved\"}", n(jobs.restarted_rows)},
      {"hts_gd_restarts_total{kind=\"plateau\"}",
       n(jobs.plateau_restarted_rows)},
      {"hts_gd_restarts_total{kind=\"diversity\"}",
       n(jobs.diversity_restarted_rows)},
      {"hts_harvest_rows_validated_total", n(jobs.rows_validated)},
      {"hts_harvest_ms_total", fleet.jobs.harvest_ms},
      {"hts_amplify_candidates_total", n(jobs.amplified_candidates)},
      {"hts_amplify_survivors_total", n(jobs.amplified_uniques)},
      {"hts_stream_delivered_total", n(delivered)},
      {"hts_stream_stall_ms_total", fleet.stall_ms},
      {"hts_fault_injections_total{site=\"compile\"}",
       n(injector.injected(service::fault_sites::kCompile))},
      {"hts_fault_injections_total{site=\"engine_alloc\"}",
       n(injector.injected(service::fault_sites::kEngineAlloc))},
      {"hts_fault_injections_total{site=\"harvest\"}",
       n(injector.injected(service::fault_sites::kHarvest))},
      {"hts_fault_injections_total{site=\"stream_push\"}",
       n(injector.injected(service::fault_sites::kStreamPush))},
      {"hts_fault_injections_total{site=\"slice\"}",
       n(injector.injected(service::fault_sites::kSlice))},
      {"hts_scheduler_slice_ms_count", n(fleet.slices)},
      {"hts_scheduler_slice_ms_bucket{le=\"+Inf\"}", n(fleet.slices)},
      {"hts_scheduler_slice_ms_sum", snapshot.slice_ms.sum()},
  };
  const std::map<std::string, double> samples =
      parse_samples(snapshot.metrics_prometheus);
  for (const auto& [series, value] : expected) {
    const auto it = samples.find(series);
    ASSERT_NE(it, samples.end()) << series;
    EXPECT_EQ(it->second, value) << series;
  }
  // Nothing else is rendered but the slice histogram's finite buckets.
  for (const auto& [series, value] : samples) {
    if (expected.count(series) == 0) {
      EXPECT_EQ(series.rfind("hts_scheduler_slice_ms_bucket{le=", 0), 0u)
          << series;
    }
  }
}

TEST(TelemetryService, CompileBilledOnceWaitersBilledAsCacheWait) {
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
}

TEST(TelemetryService, BackpressureStallIsMeasured) {
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

  const service::StatsSnapshot snapshot = server.stats_snapshot();
  EXPECT_GT(snapshot.server.stall_ms, 0.0);
  EXPECT_EQ(snapshot.server.delivered, solutions.size());
}

TEST(TelemetryService, InjectedFaultsAndRetriesAppearInTraceAndMetrics) {
  TraceGuard guard(/*on=*/true);
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
  const std::map<std::string, double> samples =
      parse_samples(server.stats_snapshot().metrics_prometheus);
  EXPECT_GT(samples.at("hts_fault_injections_total{site=\"slice\"}"), 0.0);
  EXPECT_EQ(samples.at("hts_fault_injections_total{site=\"compile\"}"), 0.0);
  EXPECT_EQ(samples.at("hts_scheduler_retried_total"), retries);

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
