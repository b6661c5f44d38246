// Sampling-service bench: what the shared fleet + compiled-plan cache buy
// over stand-alone sequential sampling, and what the EDF slicing costs a
// short job stuck behind a long one.
//
// Three scenarios, all mirrored into `--json` records (see bench_common):
//
//   aggregate-throughput  N concurrent same-formula requests (distinct
//                         seeds) through one Server vs N sequential cold
//                         GradientSampler runs (each paying its own
//                         transform+compile).  Metric: aggregate unique
//                         solutions per second of wall clock; the service
//                         compiles once and overlaps execution across the
//                         fleet.  Acceptance bar: >= 1.5x.
//   hol-fairness          a short job submitted while a long batch job is
//                         mid-flight, on a single-worker server (the
//                         worst case): time-sliced EDF must complete it
//                         within 2x its solo latency.
//   latency-distribution  a burst of small requests from several clients:
//                         requests/sec and p50/p99 completion latency.
//   overload-shedding     demand ~4x what the fleet can serve within the
//                         deadline, with admission control on: infeasible
//                         requests must bounce at submit() (no compile, no
//                         rounds, sub-millisecond), and >= 90% of the jobs
//                         the server *did* accept must meet their deadline.
//                         This scenario asserts (exit nonzero on violation),
//                         so the perf-smoke CTest run gates on it.
//   flip-amplification    equal wall budget (per family, at least the
//                         smoke budget and long enough for a fixed number
//                         of GD rounds), amplifier off vs on; asserts
//                         >= 3x uniques on >= 2 of 3 families.
//   projected-sampling    equal wall budget (sized the same way) with a
//                         sampling set over a slice of the primary
//                         inputs; full-dedup baseline vs projected dedup
//                         + diversity objective, median of 3 alternating
//                         runs each.  Asserts: no duplicate projections
//                         delivered, and >= 1.5x distinct projected
//                         uniques on >= 2 of 3 families.
//   telemetry-overhead    the identical fixed-work fleet with tracing off
//                         vs on, min-of-3 each, interleaved.  Asserts the
//                         traced-path overhead bar (<= 2%, plus the
//                         measured noise floor), and records the
//                         slice-duration p50/p99 from the traced server's
//                         stats_snapshot().
//
// Extra knobs on top of bench_common's:
//   HTS_BENCH_SERVICE_REQUESTS  concurrent requests in the throughput
//                               scenario (default 8)
//   HTS_BENCH_SERVICE_WORKERS   fleet size (default: hardware concurrency)
//
// `--trace FILE` writes the Chrome trace-event JSON the telemetry-overhead
// scenario's traced runs recorded (Perfetto-loadable; CI validates it).

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "service/server.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace hts;

struct Aggregate {
  double wall_ms = 0.0;
  std::size_t uniques = 0;

  [[nodiscard]] double uniques_per_sec() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(uniques) / wall_ms
                         : 0.0;
  }
};

service::SamplingRequest make_request(const cnf::Formula& formula,
                                      std::size_t target, std::uint64_t seed,
                                      std::size_t batch) {
  service::SamplingRequest request;
  request.formula = formula;
  request.seed = seed;
  request.target_uniques = target;
  // Safety valve only: every scenario is sized to finish on target, but a
  // misconfigured environment must not hang the bench.
  request.deadline_ms = 120000.0;
  request.deliver_solutions = false;  // throughput of *finding*, not copying
  request.config.batch = batch;
  return request;
}

/// N back-to-back stand-alone runs, each paying transform+compile ("cold"):
/// the pre-service deployment model.
Aggregate run_sequential_cold(const cnf::Formula& formula, std::size_t n_requests,
                              std::size_t target, std::size_t batch,
                              std::uint64_t base_seed) {
  Aggregate aggregate;
  const util::Timer timer;
  for (std::size_t i = 0; i < n_requests; ++i) {
    sampler::GradientConfig config;
    config.batch = batch;
    config.policy = tensor::Policy::kSerial;
    sampler::GradientSampler sampler(config);
    sampler::RunOptions options;
    options.min_solutions = target;
    options.budget_ms = 120000.0;
    options.seed = base_seed + i;
    const sampler::RunResult result = sampler.run(formula, options);
    aggregate.uniques += result.n_unique;
  }
  aggregate.wall_ms = timer.milliseconds();
  return aggregate;
}

Aggregate run_service_concurrent(const cnf::Formula& formula,
                                 std::size_t n_requests, std::size_t target,
                                 std::size_t batch, std::uint64_t base_seed,
                                 std::size_t n_workers,
                                 service::PlanCache::Stats* cache_stats) {
  Aggregate aggregate;
  service::Server server({.n_workers = n_workers});
  const util::Timer timer;
  std::vector<service::JobHandle> handles;
  handles.reserve(n_requests);
  for (std::size_t i = 0; i < n_requests; ++i) {
    service::SamplingRequest request =
        make_request(formula, target, base_seed + i, batch);
    request.client_id = i;
    handles.push_back(server.submit(std::move(request)));
  }
  for (const service::JobHandle& handle : handles) {
    (void)handle.wait();
    aggregate.uniques += handle.stats().n_unique;
  }
  aggregate.wall_ms = timer.milliseconds();
  if (cache_stats != nullptr) *cache_stats = server.plan_cache_stats();
  return aggregate;
}

/// Wall time of one GD round of `formula` at `batch`: the sampling clock of
/// a max_rounds = 1 kSerial GradientSampler run (a service worker's policy),
/// best of two.  The equal-budget scenarios size each family's budget from
/// it, so a slower build (Debug, sanitizers) gives both sides of a
/// comparison the same number of rounds a Release build gets.
[[nodiscard]] double round_cost_ms(const cnf::Formula& formula,
                                   std::size_t batch, std::uint64_t seed) {
  sampler::GradientConfig config;
  config.batch = batch;
  config.policy = tensor::Policy::kSerial;
  config.max_rounds = 1;
  sampler::RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = -1.0;
  options.seed = seed;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    sampler::GradientSampler sampler(config);
    best = std::min(best, sampler.run(formula, options).elapsed_ms);
  }
  return best;
}

[[nodiscard]] double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

}  // namespace

int bench_main(int argc, char** argv) {
  bench::BenchEnv env;
  bench::JsonWriter json(argc, argv, "service_throughput");
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto n_workers = static_cast<std::size_t>(util::env_int(
      "HTS_BENCH_SERVICE_WORKERS", static_cast<long long>(hardware)));
  const auto n_requests = static_cast<std::size_t>(
      util::env_int("HTS_BENCH_SERVICE_REQUESTS", 8));

  std::printf("=== Sampling service: shared fleet + plan cache ===\n");
  std::printf("workers %zu, %zu concurrent requests, target %zu uniques/request\n\n",
              n_workers, n_requests, env.min_solutions);

  // --- scenario 1: aggregate throughput, concurrent vs sequential cold ------
  // s15850a is the family where compilation is a real fraction of a
  // request (ISCAS'89-scale netlist): exactly the compile-once-sample-many
  // regime the plan cache exists for.
  const benchgen::Instance instance =
      bench::make_scaled_instance("s15850a_3_2", env);
  // Latency-regime batch: a service request wants its target promptly, not
  // the biggest bulk harvest per round — and a smaller per-job footprint is
  // what lets 8 engines coexist.  (pick_batch targets stand-alone bulk
  // sampling; HTS_BENCH_BATCH still overrides.)
  const std::size_t batch = env.batch != 0 ? env.batch : 2048;
  const std::size_t target = env.min_solutions;

  std::fprintf(stderr, "[service_throughput] sequential cold x%zu ...\n",
               n_requests);
  const Aggregate sequential = run_sequential_cold(
      instance.formula, n_requests, target, batch, env.seed);
  std::fprintf(stderr, "[service_throughput] service concurrent x%zu ...\n",
               n_requests);
  service::PlanCache::Stats cache_stats;
  const Aggregate concurrent = run_service_concurrent(
      instance.formula, n_requests, target, batch, env.seed, n_workers,
      &cache_stats);
  const double speedup =
      sequential.uniques_per_sec() > 0.0
          ? concurrent.uniques_per_sec() / sequential.uniques_per_sec()
          : 0.0;

  util::Table throughput_table({"Mode", "Uniques", "Wall(ms)", "Uniq/s"});
  throughput_table.add_row({"sequential-cold", std::to_string(sequential.uniques),
                            util::format_fixed(sequential.wall_ms, 1),
                            util::format_grouped(sequential.uniques_per_sec(), 1)});
  throughput_table.add_row({"service-concurrent", std::to_string(concurrent.uniques),
                            util::format_fixed(concurrent.wall_ms, 1),
                            util::format_grouped(concurrent.uniques_per_sec(), 1)});
  std::printf("%s\naggregate speedup: %s (plan cache: %llu hits / %llu misses)\n\n",
              throughput_table.to_string().c_str(),
              util::format_speedup(speedup).c_str(),
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses));
  {
    bench::JsonRecord record;
    record.field("mode", "aggregate-throughput")
        .field("instance", instance.name)
        .field("requests", n_requests)
        .field("workers", n_workers)
        .field("target_uniques", target)
        .field("batch", batch)
        .field("seq_uniques", sequential.uniques)
        .field("seq_wall_ms", sequential.wall_ms)
        .field("seq_uniques_per_sec", sequential.uniques_per_sec())
        .field("svc_uniques", concurrent.uniques)
        .field("svc_wall_ms", concurrent.wall_ms)
        .field("svc_uniques_per_sec", concurrent.uniques_per_sec())
        .field("speedup", speedup)
        .field("cache_hits", cache_stats.hits)
        .field("cache_misses", cache_stats.misses);
    json.add(record);
  }

  // --- scenario 2: no head-of-line blocking ---------------------------------
  // Single worker on purpose: with any second worker the short job simply
  // takes a free slot, so one worker is the configuration where only
  // time-sliced EDF can save it.
  // The short job is real work (a full 16k-row harvest on the q-chain
  // family), not a no-op: its solo latency is the denominator of the
  // fairness ratio, so it must dwarf scheduling noise.  The long job runs
  // a moderate batch — its *slice* length, one GD round, is what bounds
  // the short job's wait under time-sliced EDF.
  const benchgen::Instance short_instance =
      bench::make_scaled_instance("75-10-1-q", env);
  const std::size_t short_target =
      std::min<std::size_t>(2 * env.min_solutions, 2000);
  const std::size_t short_batch = 16384;
  const std::size_t long_batch = 256;

  double solo_ms = 0.0;
  {
    service::Server server({.n_workers = 1});
    service::SamplingRequest request = make_request(
        short_instance.formula, short_target, env.seed, short_batch);
    request.deadline_ms = 60000.0;
    const util::Timer timer;
    const service::JobHandle handle = server.submit(std::move(request));
    (void)handle.wait();
    solo_ms = timer.milliseconds();
  }
  double behind_ms = 0.0;
  std::uint64_t long_rounds = 0;
  {
    service::Server server({.n_workers = 1});
    service::SamplingRequest long_request =
        make_request(instance.formula, 0, env.seed + 100, long_batch);
    long_request.deadline_ms = 0.0;     // pure batch job: runs until cancel
    long_request.max_uniques = 0;
    const service::JobHandle long_handle = server.submit(std::move(long_request));
    // The long job must be mid-slice when the short one arrives.
    while (long_handle.stats().rounds == 0 &&
           !service::job_status_terminal(long_handle.status())) {
      std::this_thread::yield();
    }
    service::SamplingRequest short_request = make_request(
        short_instance.formula, short_target, env.seed, short_batch);
    short_request.deadline_ms = 60000.0;  // EDF priority over the batch job
    const util::Timer timer;
    const service::JobHandle short_handle =
        server.submit(std::move(short_request));
    (void)short_handle.wait();
    behind_ms = timer.milliseconds();
    long_rounds = long_handle.stats().rounds;
    long_handle.cancel();
    (void)long_handle.wait();
  }
  const double hol_ratio = solo_ms > 0.0 ? behind_ms / solo_ms : 0.0;
  std::printf("head-of-line check (1 worker): solo %.1f ms, behind long job "
              "%.1f ms -> ratio %.2f (bar: <= 2)\n\n",
              solo_ms, behind_ms, hol_ratio);
  {
    bench::JsonRecord record;
    record.field("mode", "hol-fairness")
        .field("short_instance", short_instance.name)
        .field("long_instance", instance.name)
        .field("solo_ms", solo_ms)
        .field("behind_ms", behind_ms)
        .field("ratio", hol_ratio)
        .field("long_rounds_before_cancel", long_rounds);
    json.add(record);
  }

  // --- scenario 3: burst latency distribution -------------------------------
  const std::size_t burst = 2 * n_requests;
  std::vector<double> latencies;
  double burst_wall_ms = 0.0;
  {
    service::Server server({.n_workers = n_workers});
    std::vector<service::JobHandle> handles;
    handles.reserve(burst);
    const util::Timer timer;
    for (std::size_t i = 0; i < burst; ++i) {
      service::SamplingRequest request = make_request(
          short_instance.formula, short_target, env.seed + i, short_batch);
      request.client_id = i % 4;
      handles.push_back(server.submit(std::move(request)));
    }
    for (const service::JobHandle& handle : handles) {
      (void)handle.wait();
      latencies.push_back(handle.stats().wall_ms);
    }
    burst_wall_ms = timer.milliseconds();
  }
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double requests_per_sec =
      burst_wall_ms > 0.0 ? 1000.0 * static_cast<double>(burst) / burst_wall_ms
                          : 0.0;
  std::printf("burst of %zu small requests: %.1f req/s, latency p50 %.1f ms, "
              "p99 %.1f ms\n",
              burst, requests_per_sec, p50, p99);
  {
    bench::JsonRecord record;
    record.field("mode", "latency-distribution")
        .field("instance", short_instance.name)
        .field("requests", burst)
        .field("workers", n_workers)
        .field("req_per_sec", requests_per_sec)
        .field("p50_ms", p50)
        .field("p99_ms", p99);
    json.add(record);
  }

  // --- scenario 4: overload shedding under admission control ----------------
  // A two-worker fleet is offered ~4x the work it can finish inside the
  // deadline.  Calibration first: a few sequential warmup jobs measure the
  // true per-job cost on this machine, so the deadline below scales with
  // host speed (and sanitizer overhead) instead of hardcoding milliseconds.
  // The overload server is then constructed with that measurement as its
  // cost prior — the bench tests shedding accuracy, not how fast the EWMA
  // converges from a cold prior.
  {
    constexpr std::size_t kWarmup = 4;
    double cost_ms = 0.0;
    {
      service::Server warmup_server({.n_workers = 2});
      for (std::size_t i = 0; i < kWarmup; ++i) {
        service::SamplingRequest request = make_request(
            short_instance.formula, short_target, env.seed + i, short_batch);
        const service::JobHandle handle = warmup_server.submit(std::move(request));
        (void)handle.wait();
        cost_ms = std::max(cost_ms, handle.stats().wall_ms);
      }
    }
    service::ServerConfig config{.n_workers = 2};
    config.admission.enabled = true;
    config.admission.initial_job_cost_ms = cost_ms;
    service::Server server(std::move(config));

    // deadline = 4x one job's cost => the two workers can finish ~8 jobs
    // in time; offering 32 makes demand ~4x capacity.
    const double deadline_ms = std::max(4.0 * cost_ms, 1.0);
    constexpr std::size_t kOffered = 32;
    std::vector<service::JobHandle> handles;
    std::vector<double> submit_us;
    handles.reserve(kOffered);
    for (std::size_t i = 0; i < kOffered; ++i) {
      service::SamplingRequest request = make_request(
          short_instance.formula, short_target, env.seed + 100 + i, short_batch);
      request.client_id = i % 4;
      request.deadline_ms = deadline_ms;
      const util::Timer submit_timer;
      handles.push_back(server.submit(std::move(request)));
      submit_us.push_back(1000.0 * submit_timer.milliseconds());
    }

    std::size_t rejected = 0;
    std::size_t accepted = 0;
    std::size_t met = 0;
    double reject_max_us = 0.0;
    bool reject_did_work = false;
    for (std::size_t i = 0; i < kOffered; ++i) {
      const service::JobStatus status = handles[i].wait();
      const service::JobStats stats = handles[i].stats();
      if (status == service::JobStatus::kRejected) {
        ++rejected;
        reject_max_us = std::max(reject_max_us, submit_us[i]);
        // Load shedding is only cheap if it happens *before* any compile or
        // execution; a reject that burned worker time defeats the point.
        if (stats.compile_ms > 0.0 || stats.rounds > 0) reject_did_work = true;
      } else {
        ++accepted;
        if (status == service::JobStatus::kCompleted) ++met;
      }
    }
    const double met_fraction =
        accepted > 0 ? static_cast<double>(met) / static_cast<double>(accepted)
                     : 0.0;
    std::printf("\noverload (2 workers, %zu offered, deadline %.1f ms = 4x "
                "calibrated cost %.1f ms):\n  accepted %zu (%.0f%% met "
                "deadline), rejected %zu at submit (max %.0f us)\n",
                kOffered, deadline_ms, cost_ms, accepted, 100.0 * met_fraction,
                rejected, reject_max_us);
    {
      bench::JsonRecord record;
      record.field("mode", "overload-shedding")
          .field("instance", short_instance.name)
          .field("offered", kOffered)
          .field("workers", std::size_t{2})
          .field("calibrated_cost_ms", cost_ms)
          .field("deadline_ms", deadline_ms)
          .field("accepted", accepted)
          .field("rejected", rejected)
          .field("deadline_met_fraction", met_fraction)
          .field("reject_max_us", reject_max_us);
      json.add(record);
    }
    // The acceptance bars, enforced here so perf-smoke CI gates on them.
    bool ok = true;
    if (rejected == 0) {
      std::fprintf(stderr, "[service_throughput] FAIL: overload shed nothing "
                           "(admission control never rejected)\n");
      ok = false;
    }
    if (reject_did_work) {
      std::fprintf(stderr, "[service_throughput] FAIL: a rejected job compiled "
                           "or ran rounds before bouncing\n");
      ok = false;
    }
    // Sub-ms is the design target; 10 ms is the hard bar so sanitizer and
    // loaded-CI builds do not flake on scheduler noise.
    if (reject_max_us > 10000.0) {
      std::fprintf(stderr, "[service_throughput] FAIL: slowest rejection took "
                           "%.0f us (bar: 10000)\n", reject_max_us);
      ok = false;
    }
    if (met_fraction < 0.9) {
      std::fprintf(stderr, "[service_throughput] FAIL: only %.0f%% of accepted "
                           "jobs met their deadline (bar: 90%%)\n",
                   100.0 * met_fraction);
      ok = false;
    }
    if (!ok) return 1;
  }

  // Both equal-budget scenarios below give each family one wall budget,
  // shared by both sides of its comparison:
  //   budget = max(base, rounds * round_cost_ms(family, batch)).
  // `base` is the smoke budget the bars were set at, and a family's
  // `rounds` is a little under the GD rounds that base holds in a Release
  // build (4 vCPUs, g++ 12.2).  So a Release build keeps the base budget,
  // and a slower build (Debug, sanitizers) gets the longer budget that
  // holds the same rounds.  What a multiplier measures depends on the
  // rounds each side ran, not on wall time: in that Release build,
  // s15850a's projected multiplier was ~2x at the 1.4 rounds its base
  // holds and 1.29x at 7.5 rounds.

  // --- scenario 5: flip amplification at equal wall budget ------------------
  // Same formula, same seed, same wall budget; the only difference is
  // config.amplify.  The plan cache is pre-warmed per family so neither
  // timed run pays the compile, making the comparison pure sampling
  // throughput.  Acceptance bar (asserted, so perf-smoke CI gates on it):
  // >= 3x uniques on at least 2 of the 3 families.
  {
    const double amp_base_ms = std::max(env.budget_ms, 10.0);
    constexpr std::size_t kAmpBatch = 2048;
    struct AmpFamily {
      const char* name;
      double rounds;  // budget floor in GD rounds (see above)
    };
    constexpr AmpFamily kAmpFamilies[] = {
        {"or-50-10-7-UC-10", 2.5}, {"75-10-1-q", 1.5}, {"Prod-8", 0.1}};
    std::size_t families_over_bar = 0;
    service::Server amp_server({.n_workers = 2});
    util::Table amp_table({"Instance", "Round(ms)", "Budget(ms)", "Off uniq",
                           "On uniq", "Amplified", "Multiplier"});
    for (const AmpFamily& family : kAmpFamilies) {
      const benchgen::Instance amp_instance =
          bench::make_scaled_instance(family.name, env);
      const double round_ms =
          round_cost_ms(amp_instance.formula, kAmpBatch, env.seed);
      const double amp_budget_ms =
          std::max(amp_base_ms, family.rounds * round_ms);
      {
        service::SamplingRequest warm =
            make_request(amp_instance.formula, 1, env.seed, kAmpBatch);
        (void)amp_server.submit(std::move(warm)).wait();
      }
      auto timed_uniques = [&](bool amplify, std::uint64_t* amplified) {
        service::SamplingRequest request =
            make_request(amp_instance.formula, 0, env.seed + 9, kAmpBatch);
        request.deadline_ms = amp_budget_ms;  // the budget is the only stop
        request.config.amplify.enabled = amplify;
        const service::JobHandle handle = amp_server.submit(std::move(request));
        (void)handle.wait();
        if (amplified != nullptr) *amplified = handle.stats().amplified_uniques;
        return handle.stats().n_unique;
      };
      const std::size_t off_uniques = timed_uniques(false, nullptr);
      std::uint64_t amplified = 0;
      const std::size_t on_uniques = timed_uniques(true, &amplified);
      const double multiplier = static_cast<double>(on_uniques) /
                                std::max<double>(1.0, static_cast<double>(off_uniques));
      if (multiplier >= 3.0) ++families_over_bar;
      amp_table.add_row({amp_instance.name, util::format_fixed(round_ms, 1),
                         util::format_fixed(amp_budget_ms, 0),
                         std::to_string(off_uniques),
                         std::to_string(on_uniques), std::to_string(amplified),
                         util::format_fixed(multiplier, 2)});
      bench::JsonRecord record;
      record.field("mode", "flip-amplification")
          .field("instance", amp_instance.name)
          .field("round_ms", round_ms)
          .field("budget_ms", amp_budget_ms)
          .field("off_uniques", off_uniques)
          .field("on_uniques", on_uniques)
          .field("amplified_uniques", amplified)
          .field("multiplier", multiplier);
      json.add(record);
    }
    std::printf("\nflip amplification (equal budget per job, at least "
                "%.0f ms):\n%s\n%zu of %zu families at >= 3x (bar: 2)\n",
                amp_base_ms, amp_table.to_string().c_str(),
                families_over_bar, std::size(kAmpFamilies));
    if (families_over_bar < 2) {
      std::fprintf(stderr, "[service_throughput] FAIL: flip amplification hit "
                           ">= 3x uniques on only %zu of %zu families "
                           "(bar: 2)\n",
                   families_over_bar, std::size(kAmpFamilies));
      return 1;
    }
  }

  // --- scenario 6: projected sampling at equal wall budget ------------------
  // Same formula, same seed, same wall budget; the request carries a
  // sampling set over a slice of the circuit's primary inputs.  The
  // baseline keeps full-assignment dedup (projected_dedup off) and its
  // distinct projections are counted externally from the delivered stream;
  // the projected run keys the bank on the projection and turns the
  // diversity objective on.  Two asserted bars (perf-smoke CI gates here):
  // the projected stream must never deliver the same projection twice, and
  // projected+diversity must find >= 1.5x the distinct projected uniques
  // on at least 2 of the 3 families.
  {
    // Twice the smoke budget: the off-run's duplicate waste compounds with
    // coverage, so the gap the diversity objective closes needs enough
    // rounds to open up (both runs always get the identical budget).
    const double proj_base_ms = std::max(2.0 * env.budget_ms, 20.0);
    struct ProjFamily {
      const char* name;
      std::size_t set_bits;  // leading primary inputs projected onto
      std::size_t batch;     // GD batch (a round checkpoint must fit the
                             // deadline, so big circuits take a small batch)
      double rounds;         // budget floor in GD rounds (see above)
    };
    // set_bits targets a projected space comparable to what one budget's
    // worth of valid draws can cover: small enough that an unguided run
    // wastes draws on already-seen classes, large enough that neither run
    // saturates instantly.  The two or-* entries are free-input-rich — the
    // regime projection diversity is built for: valid throughput is huge
    // relative to the projected space, so the guided neighbor walk converts
    // nearly every draw into a fresh class (~1.7x measured) while the
    // unguided run pays the coupon-collector tax.  s15850a projects onto
    // constrained gate-cone inputs of a 10k-var circuit: there the batch
    // must shrink so the first round checkpoint lands inside the deadline
    // at all, and the walk's cheap re-convergence near known solutions is
    // worth ~1.9-2.5x over re-paying full descent per class.
    constexpr ProjFamily kProjFamilies[] = {
        {"or-60-20-9-UC-20", 16, 2048, 5.0},
        {"or-75-10-7-UC-15", 16, 2048, 4.0},
        {"s15850a_3_2", 12, 512, 1.25}};
    struct PackedHash {
      std::size_t operator()(const std::vector<std::uint64_t>& key) const noexcept {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const std::uint64_t w : key) {
          h ^= w;
          h *= 0x100000001b3ULL;
        }
        return static_cast<std::size_t>(h);
      }
    };
    std::size_t families_over_bar = 0;
    std::size_t duplicate_projections = 0;
    service::Server proj_server({.n_workers = 2});
    util::Table proj_table({"Instance", "SetBits", "Round(ms)", "Budget(ms)",
                            "Off proj", "On proj", "Div rows", "Multiplier"});
    for (const ProjFamily& family : kProjFamilies) {
      const benchgen::Instance proj_instance =
          bench::make_scaled_instance(family.name, env);
      // Project onto the formula variables of the first set_bits primary
      // inputs (every generator registers inputs before gates).
      std::vector<cnf::Var> sampling_set;
      const std::vector<circuit::SignalId>& inputs = proj_instance.circuit.inputs();
      for (std::size_t i = 0; i < inputs.size() && i < family.set_bits; ++i) {
        sampling_set.push_back(proj_instance.signal_var[inputs[i]]);
      }
      const double round_ms =
          round_cost_ms(proj_instance.formula, family.batch, env.seed);
      const double proj_budget_ms =
          std::max(proj_base_ms, family.rounds * round_ms);
      {
        service::SamplingRequest warm =
            make_request(proj_instance.formula, 1, env.seed, family.batch);
        (void)proj_server.submit(std::move(warm)).wait();
      }
      // Runs one job to the wall budget, streaming every delivered witness
      // through a projection counter.  Returns (distinct, duplicates).
      auto timed_projections = [&](bool projected, std::uint64_t* div_rows) {
        std::unordered_set<std::vector<std::uint64_t>, PackedHash> seen;
        std::size_t duplicates = 0;
        const std::size_t n_words = (sampling_set.size() + 63) / 64;
        service::SamplingRequest request =
            make_request(proj_instance.formula, 0, env.seed + 11, family.batch);
        request.deadline_ms = proj_budget_ms;  // the budget is the only stop
        request.sampling_set = sampling_set;
        request.config.projected_dedup = projected;
        request.config.diversity_restart = projected;
        request.deliver_solutions = true;
        request.on_solution = [&](const cnf::Assignment& draw) {
          std::vector<std::uint64_t> key(n_words, 0);
          for (std::size_t j = 0; j < sampling_set.size(); ++j) {
            if (draw[sampling_set[j]] != 0) key[j >> 6] |= (1ULL << (j & 63));
          }
          if (!seen.insert(std::move(key)).second) ++duplicates;
        };
        const service::JobHandle handle = proj_server.submit(std::move(request));
        (void)handle.wait();
        if (div_rows != nullptr) *div_rows = handle.stats().diversity_restarted_rows;
        return std::make_pair(seen.size(), duplicates);
      };
      // One run per side is at the mercy of host noise on a budget this
      // short (the deadline cuts each deterministic stream at whatever
      // iteration it reached), so the two sides alternate kProjReps times
      // and their medians are compared.
      constexpr std::size_t kProjReps = 3;
      std::vector<std::size_t> off_samples;
      std::vector<std::size_t> on_samples;
      std::vector<std::uint64_t> div_samples;
      std::size_t on_dups = 0;
      for (std::size_t rep = 0; rep < kProjReps; ++rep) {
        off_samples.push_back(timed_projections(false, nullptr).first);
        std::uint64_t rows = 0;
        const auto [distinct, dups] = timed_projections(true, &rows);
        on_dups += dups;
        on_samples.push_back(distinct);
        div_samples.push_back(rows);
      }
      duplicate_projections += on_dups;
      auto median = [](auto samples) {
        std::sort(samples.begin(), samples.end());
        return samples[samples.size() / 2];
      };
      const std::size_t off_distinct = median(off_samples);
      const std::size_t on_distinct = median(on_samples);
      const std::uint64_t div_rows = median(div_samples);
      const double multiplier =
          static_cast<double>(on_distinct) /
          std::max<double>(1.0, static_cast<double>(off_distinct));
      if (multiplier >= 1.5) ++families_over_bar;
      proj_table.add_row({proj_instance.name, std::to_string(sampling_set.size()),
                          util::format_fixed(round_ms, 1),
                          util::format_fixed(proj_budget_ms, 0),
                          std::to_string(off_distinct), std::to_string(on_distinct),
                          std::to_string(div_rows),
                          util::format_fixed(multiplier, 2)});
      bench::JsonRecord record;
      record.field("mode", "projected-sampling")
          .field("instance", proj_instance.name)
          .field("round_ms", round_ms)
          .field("budget_ms", proj_budget_ms)
          .field("set_bits", sampling_set.size())
          .field("off_distinct_projections", off_distinct)
          .field("on_distinct_projections", on_distinct)
          .field("on_distinct_per_sec",
                 1000.0 * static_cast<double>(on_distinct) / proj_budget_ms)
          .field("duplicate_projections_delivered", on_dups)
          .field("diversity_restarted_rows", div_rows)
          .field("multiplier", multiplier);
      json.add(record);
    }
    std::printf("\nprojected sampling (equal budget per job, at least %.0f "
                "ms, median of 3 alternating runs):\n%s\n"
                "%zu of %zu families at >= 1.5x (bar: 2); duplicate projections "
                "delivered: %zu (bar: 0)\n",
                proj_base_ms, proj_table.to_string().c_str(),
                families_over_bar, std::size(kProjFamilies),
                duplicate_projections);
    if (duplicate_projections != 0) {
      std::fprintf(stderr, "[service_throughput] FAIL: projected streams "
                           "delivered %zu duplicate projections (bar: 0)\n",
                   duplicate_projections);
      return 1;
    }
    if (families_over_bar < 2) {
      std::fprintf(stderr, "[service_throughput] FAIL: projected+diversity hit "
                           ">= 1.5x distinct projections on only %zu of %zu "
                           "families (bar: 2)\n",
                   families_over_bar, std::size(kProjFamilies));
      return 1;
    }
  }

  // --- scenario 7: tracing overhead at fixed work ---------------------------
  // The same fleet (same formulas, seeds, targets — fixed work, not fixed
  // time) runs with tracing off and on, interleaved min-of-3 per mode so
  // machine drift hits both sides.  Metrics cost nothing per event (the
  // server builds them from its own counters when asked), so tracing is the
  // only instrumentation to price: every span site is one relaxed-load
  // branch when off, so the traced run must stay within 2% of the untraced
  // run plus the machine's own measured noise floor (see `allowance` below).
  {
    const bool trace_before = telemetry::trace_enabled();
    telemetry::TraceSink::global().clear();
    constexpr std::size_t kReps = 3;
    constexpr std::size_t kFleet = 4;
    service::StatsSnapshot traced_snapshot;  // the last traced rep's server
    auto fleet_ms = [&](bool traced) {
      telemetry::set_trace_enabled(traced);
      service::Server server({.n_workers = 2});
      const util::Timer timer;
      std::vector<service::JobHandle> handles;
      handles.reserve(kFleet);
      for (std::size_t i = 0; i < kFleet; ++i) {
        service::SamplingRequest request = make_request(
            short_instance.formula, short_target, env.seed + 200 + i,
            short_batch);
        request.client_id = i;
        request.deliver_solutions = true;  // exercise the stream seam too
        handles.push_back(server.submit(std::move(request)));
      }
      for (const service::JobHandle& handle : handles) {
        (void)handle.wait();
        handle.stream().cancel();  // undelivered tail is not the subject
      }
      const double ms = timer.milliseconds();
      if (traced) traced_snapshot = server.stats_snapshot();
      return ms;
    };
    double off_min = std::numeric_limits<double>::infinity();
    double off_max = 0.0;
    double on_min = std::numeric_limits<double>::infinity();
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      const double off = fleet_ms(/*traced=*/false);
      off_min = std::min(off_min, off);
      off_max = std::max(off_max, off);
      on_min = std::min(on_min, fleet_ms(/*traced=*/true));
    }
    telemetry::set_trace_enabled(trace_before);
    const double overhead_pct =
        off_min > 0.0 ? 100.0 * (on_min - off_min) / off_min : 0.0;
    // Self-calibrating noise allowance: identical work repeated in the same
    // mode already spreads by off_max - off_min on a loaded host, so the 2%
    // bar is only meaningful above that floor (2 ms minimum for timer
    // granularity at smoke budgets).
    const double allowance =
        off_min * 0.02 + std::max(2.0, off_max - off_min);

    // The percentile view an operator would read off the slice-duration
    // histogram of the last traced server.
    const telemetry::Histogram& slice_hist = traced_snapshot.slice_ms;
    const double slice_p50 = slice_hist.percentile(50.0);
    const double slice_p99 = slice_hist.percentile(99.0);

    std::printf("\ntracing overhead (fixed work, min of %zu): off %.1f ms "
                "(spread %.1f), on %.1f ms -> %+.2f%% (bar: <= 2%% + noise "
                "floor); slice p50 %.2f ms, p99 %.2f ms\n",
                kReps, off_min, off_max - off_min, on_min, overhead_pct,
                slice_p50, slice_p99);
    {
      bench::JsonRecord record;
      record.field("mode", "telemetry-overhead")
          .field("instance", short_instance.name)
          .field("fleet", kFleet)
          .field("reps", kReps)
          .field("off_ms", off_min)
          .field("off_spread_ms", off_max - off_min)
          .field("on_ms", on_min)
          .field("overhead_pct", overhead_pct)
          .field("allowance_ms", allowance)
          .field("slice_p50_ms", slice_p50)
          .field("slice_p99_ms", slice_p99)
          .field("slice_count", slice_hist.count())
          .field("trace_dropped", telemetry::TraceSink::global().dropped());
      json.add(record);
    }
    bool ok = true;
    if (on_min > off_min + allowance) {
      std::fprintf(stderr, "[service_throughput] FAIL: traced run took "
                           "%.1f ms vs %.1f ms off (bar: +2%% + %.1f ms "
                           "noise floor)\n",
                   on_min, off_min, std::max(2.0, off_max - off_min));
      ok = false;
    }
    if (!trace_path.empty() &&
        !telemetry::TraceSink::global().write_chrome_json(trace_path)) {
      std::fprintf(stderr, "[service_throughput] FAIL: cannot write trace to "
                           "%s\n", trace_path.c_str());
      ok = false;
    }
    if (!ok) return 1;
    if (!trace_path.empty()) {
      std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }

  std::printf("\nReading: the throughput speedup is compile-amortization plus\n"
              "fleet concurrency (>= 1.5x is the acceptance bar; single-core\n"
              "hosts see mostly the cache term).  The HOL ratio shows EDF\n"
              "time-slicing keeping short jobs out from behind batch jobs.\n");
  if (!json.write(env)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
