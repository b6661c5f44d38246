// The `service` workload: a closed loop against service::Server.  One
// generator thread keeps nproc clients' requests outstanding against a
// Server of nproc workers; each request samples one formula of a small
// cache-warm pool to a unique-solution target, with stream delivery on.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "bench.hpp"
#include "service/server.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace hts;

namespace {

/// Two formulas of each small family and one of each large one: every
/// family's engine and harvest shape is in the mix, and the large ones
/// (one engine allocation of tens of MB per request) set the latency tail.
const std::vector<std::string> kPool = {"or-50-10-7-UC-10", "or-100-20-8-UC-10",
                                        "75-10-1-q",        "90-10-10-q",
                                        "s15850a_3_2",      "Prod-8"};
constexpr std::size_t kTargetUniques = 2000;
constexpr std::size_t kBatch = 2048;
/// Projected requests sample onto the formula variables of the first
/// kSetBits primary inputs: 2^24 classes, far more than the target.
constexpr std::size_t kSetBits = 24;
/// Amplified requests cap the bases per harvest.  Unbounded amplification
/// overshoots the target by orders of magnitude on s15850a-sized formulas.
/// The value is an assumption: a small cap, not one taken from measurement.
constexpr std::size_t kMaxBasesPerCollect = 8;
/// Delivered assignments kept per request for the CNF re-check.
constexpr std::size_t kRecheckPerRequest = 32;
/// Safety valve only; a request that hits it counts as failed.
constexpr double kDeadlineMs = 60000.0;
/// Server set-ups per measured run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;
/// Closed-loop time before measuring starts (requests submitted in it are
/// not measured).
constexpr double kWarmSeconds = 1.0;

enum class Kind { kPlain, kProjected, kAmplified };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPlain:
      return "plain";
    case Kind::kProjected:
      return "projected";
    case Kind::kAmplified:
      return "amplified";
  }
  return "?";
}

struct PoolEntry {
  benchgen::Instance instance;
  std::vector<cnf::Var> sampling_set;
};

std::vector<PoolEntry> make_pool() {
  std::vector<PoolEntry> pool;
  for (const std::string& name : kPool) {
    PoolEntry entry{benchgen::make_instance(name), {}};
    const std::vector<circuit::SignalId>& inputs = entry.instance.circuit.inputs();
    for (std::size_t i = 0; i < inputs.size() && i < kSetBits; ++i) {
      entry.sampling_set.push_back(entry.instance.signal_var[inputs[i]]);
    }
    pool.push_back(std::move(entry));
  }
  return pool;
}

/// Written by the delivery callback on the job's worker thread, read by the
/// generator after the job is terminal.
struct Delivery {
  std::atomic<std::uint64_t> first_ns{0};
  std::atomic<std::size_t> count{0};
  std::mutex mutex;
  std::vector<cnf::Assignment> kept;
};

struct Request {
  service::JobHandle handle;
  std::shared_ptr<Delivery> delivery;
  std::uint64_t submit_ns = 0;
  std::size_t formula = 0;
  Kind kind = Kind::kPlain;
  bool measured = false;
};

struct Finished {
  service::JobStatus status = service::JobStatus::kQueued;
  service::JobStats stats;
  double first_ms = 0.0;
  double end_ns = 0.0;
  std::size_t formula = 0;
  Kind kind = Kind::kPlain;
  std::vector<cnf::Assignment> kept;
};

/// The request sequence: shuffled blocks in which every pool formula
/// appears three times plain, once projected and once amplified.  The
/// 60/20/20 split is an assumed mix, not measured traffic; the end-to-end
/// notes report requests and uniques per kind, so a changed mix can be read
/// against them.  Fixed block composition keeps the share of heavy requests the same in every
/// run; the seed only orders them (independent draws moved throughput by
/// about 15% between seeds).
class Schedule {
 public:
  Schedule(std::size_t n_formulas, std::uint64_t seed) : rng_(util::Rng::stream(seed, 7)) {
    for (std::size_t f = 0; f < n_formulas; ++f) {
      for (const Kind kind : {Kind::kPlain, Kind::kPlain, Kind::kPlain, Kind::kProjected,
                              Kind::kAmplified}) {
        block_.emplace_back(f, kind);
      }
    }
  }

  std::pair<std::size_t, Kind> next() {
    if (next_ == 0) rng_.shuffle(block_);
    const std::pair<std::size_t, Kind> entry = block_[next_];
    next_ = (next_ + 1) % block_.size();
    return entry;
  }

  std::uint64_t seed() { return rng_.next_u64(); }

 private:
  util::Rng rng_;
  std::vector<std::pair<std::size_t, Kind>> block_;
  std::size_t next_ = 0;
};

Request submit(service::Server& server, const std::vector<PoolEntry>& pool,
               Schedule& schedule, std::size_t client, bool measured) {
  Request request;
  std::tie(request.formula, request.kind) = schedule.next();
  request.measured = measured;
  request.delivery = std::make_shared<Delivery>();

  service::SamplingRequest sampling;
  sampling.formula = pool[request.formula].instance.formula;
  sampling.client_id = client;
  sampling.seed = schedule.seed();
  sampling.deadline_ms = kDeadlineMs;
  sampling.target_uniques = kTargetUniques;
  sampling.config.batch = kBatch;
  if (request.kind == Kind::kProjected) {
    sampling.sampling_set = pool[request.formula].sampling_set;
  } else if (request.kind == Kind::kAmplified) {
    sampling.config.amplify.enabled = true;
    sampling.config.amplify.max_bases_per_collect = kMaxBasesPerCollect;
  }
  sampling.on_solution = [delivery = request.delivery](const cnf::Assignment& a) {
    const std::size_t n = delivery->count.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) delivery->first_ns.store(util::monotonic_ns(), std::memory_order_relaxed);
    if (n < kRecheckPerRequest) {
      const std::lock_guard<std::mutex> lock(delivery->mutex);
      delivery->kept.push_back(a);
    }
  };
  request.submit_ns = util::monotonic_ns();
  request.handle = server.submit(std::move(sampling));
  return request;
}

/// Compiles every pool formula once through the server (a one-unique,
/// 64-row request each, all submitted together).  False if any failed.
bool warm_cache(service::Server& server, const std::vector<PoolEntry>& pool,
                std::uint64_t seed) {
  std::vector<service::JobHandle> handles;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    service::SamplingRequest warm;
    warm.formula = pool[i].instance.formula;
    warm.seed = derive_seed(seed, 500 + i);
    warm.target_uniques = 1;
    warm.deliver_solutions = false;
    warm.deadline_ms = kDeadlineMs;
    warm.config.batch = 64;
    handles.push_back(server.submit(std::move(warm)));
  }
  bool ok = true;
  for (const service::JobHandle& handle : handles) {
    ok = handle.wait() == service::JobStatus::kCompleted && ok;
  }
  return ok;
}

struct LoopResult {
  std::vector<Finished> finished;  // measured requests only
  double window_begin_ns = 0.0;
  service::PlanCache::Stats cache_before;
  service::PlanCache::Stats cache_after;
  std::uint64_t slices = 0;     // server slices while measured requests ran
  std::uint64_t terminals = 0;  // requests that ended in the same interval
};

/// The closed loop: nproc outstanding requests, each slot resubmitting as
/// soon as its request ends, for kWarmSeconds + `seconds`; then drains.
LoopResult closed_loop(service::Server& server, const std::vector<PoolEntry>& pool,
                       std::uint64_t seed, double seconds, std::size_t clients) {
  LoopResult loop;
  Schedule schedule(pool.size(), seed);
  std::vector<std::optional<Request>> slots(clients);
  const auto start_ns = static_cast<double>(util::monotonic_ns());
  loop.window_begin_ns = start_ns + kWarmSeconds * 1e9;
  const double window_end_ns = loop.window_begin_ns + seconds * 1e9;
  bool window_open = false;
  std::uint64_t slices_before = 0;
  std::size_t poll = 0;
  while (true) {
    const auto now = static_cast<double>(util::monotonic_ns());
    if (!window_open && now >= loop.window_begin_ns) {
      window_open = true;
      loop.cache_before = server.plan_cache_stats();
      slices_before = server.stats().slices;
    }
    bool any = false;
    for (std::size_t c = 0; c < clients; ++c) {
      if (slots[c] && service::job_status_terminal(slots[c]->handle.status())) {
        Request& done = *slots[c];
        if (window_open) ++loop.terminals;
        if (done.measured) {
          Finished f;
          f.status = done.handle.status();
          f.stats = done.handle.stats();
          const std::uint64_t first_ns = done.delivery->first_ns.load();
          f.first_ms = first_ns != 0 ? static_cast<double>(first_ns - done.submit_ns) / 1e6
                                     : f.stats.wall_ms;
          f.end_ns = static_cast<double>(done.submit_ns) + f.stats.wall_ms * 1e6;
          f.formula = done.formula;
          f.kind = done.kind;
          const std::lock_guard<std::mutex> lock(done.delivery->mutex);
          f.kept = std::move(done.delivery->kept);
          loop.finished.push_back(std::move(f));
        }
        slots[c].reset();
      }
      if (!slots[c] && now < window_end_ns) {
        slots[c] = submit(server, pool, schedule, c, now >= loop.window_begin_ns);
      }
      any = any || slots[c].has_value();
    }
    if (!any) break;
    // Block briefly on one outstanding request instead of spinning: the
    // generator must not take a core from the fleet.
    for (std::size_t k = 0; k < clients; ++k) {
      std::optional<Request>& slot = slots[(poll + k) % clients];
      if (slot) {
        (void)slot->handle.wait_for(0.5);
        break;
      }
    }
    ++poll;
  }
  loop.cache_after = server.plan_cache_stats();
  loop.slices = server.stats().slices - slices_before;
  return loop;
}

std::string count_note(std::size_t n) {
  return format("%zu requests, %zu beyond p90; tail p%g", n, samples_beyond(n, 90.0),
                tail_percentile(n));
}

/// Checks every measured request: it must complete, deliver, and every kept
/// assignment must satisfy its formula.
void check_requests(const LoopResult& loop, const std::vector<PoolEntry>& pool,
                    Outcome& out) {
  for (const Finished& f : loop.finished) {
    ++out.attempted;
    const std::string what = pool[f.formula].instance.name;
    if (f.status != service::JobStatus::kCompleted) {
      out.fail(what + ": request ended " + service::job_status_name(f.status));
    } else if (f.kept.empty()) {
      out.fail(what + ": completed request delivered nothing");
    }
    recheck(pool[f.formula].instance.formula, f.kept, what, out);
  }
  if (loop.finished.empty()) out.fail("no request was measured");
}

service::ServerConfig server_config(std::size_t nproc) {
  service::ServerConfig config;
  config.n_workers = nproc;
  config.fault_spec = "none";  // never inherit a fault-injection spec
  return config;
}

}  // namespace

Outcome run_service(const Args& args, std::size_t nproc) {
  Outcome out;
  const std::vector<PoolEntry> pool = make_pool();

  // Set-up: server construction plus the cache-warming pass, repeated; the
  // last server is the one measured.
  std::vector<double> setups;
  std::unique_ptr<service::Server> server;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    server.reset();
    const util::Timer timer;
    server = std::make_unique<service::Server>(server_config(nproc));
    if (!warm_cache(*server, pool, args.seed)) out.fail("cache-warming request failed");
    setups.push_back(timer.seconds());
  }

  const LoopResult loop = closed_loop(*server, pool, args.seed, args.seconds, nproc);
  server.reset();

  // Uniques a client asked for and got: delivered, capped at the request's
  // target.  What a request banks beyond it (batch granularity, and the
  // amplification overshoot) is no throughput; the note shows it per kind.
  struct KindTotals {
    std::size_t requests = 0;
    double delivered = 0.0;
    double banked = 0.0;
  };
  KindTotals kinds[3];
  std::vector<double> request_ms;
  std::vector<double> first_ms;
  double uniques = 0.0;
  double last_end_ns = loop.window_begin_ns;
  for (const Finished& f : loop.finished) {
    request_ms.push_back(f.stats.wall_ms);
    first_ms.push_back(f.first_ms);
    if (f.status == service::JobStatus::kCompleted) {
      const auto delivered = static_cast<double>(std::min(f.stats.delivered, kTargetUniques));
      KindTotals& kind = kinds[static_cast<int>(f.kind)];
      ++kind.requests;
      kind.delivered += delivered;
      kind.banked += static_cast<double>(f.stats.n_unique);
      uniques += delivered;
    }
    last_end_ns = std::max(last_end_ns, f.end_ns);
  }
  const double wall_s = (last_end_ns - loop.window_begin_ns) / 1e9;
  const auto n = static_cast<double>(loop.finished.size());
  check_requests(loop, pool, out);

  std::string per_kind;
  for (const Kind kind : {Kind::kPlain, Kind::kProjected, Kind::kAmplified}) {
    const KindTotals& k = kinds[static_cast<int>(kind)];
    per_kind += format("; %s %zu requests, %.0f delivered, %.0f banked", kind_name(kind),
                       k.requests, k.delivered, k.banked);
  }
  std::string setup_note = format("median of %zu server set-ups (construct + warm %zu formulas):",
                                  setups.size(), pool.size());
  for (const double s : setups) setup_note += format(" %.3f", s);
  out.add("uniques_per_s", rate(uniques, wall_s).value(), "1/s",
          format("uniques delivered by completed requests, at most %zu each / measured s = ",
                 kTargetUniques) +
              rate(uniques, wall_s).str() + per_kind);
  out.add("setup_s", median(setups), "s", setup_note);
  out.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  out.add("requests_per_s", rate(n, wall_s).value(), "1/s",
          "requests / measured s = " + rate(n, wall_s).str());
  const std::string note = count_note(loop.finished.size());
  out.add("first_solution_ms_p50", median(first_ms), "ms", note);
  out.add("first_solution_ms_p90", percentile(first_ms, 90.0), "ms", note);
  out.add("request_ms_p50", median(request_ms), "ms", note);
  out.add("request_ms_p90", percentile(request_ms, 90.0), "ms", note);
  return out;
}

Outcome trace_service(const Args& args, std::size_t nproc) {
  Outcome out;
  const std::vector<PoolEntry> pool = make_pool();

  // Layer costs of one request's private state, per pool formula: what a
  // cold compile costs (transform, tape, eval plan), and the engine each
  // request allocates at the service batch.
  std::vector<SetupLayers> setup;
  for (const PoolEntry& entry : pool) {
    sampler::GradientConfig config = service::default_job_config();
    config.batch = kBatch;
    setup.push_back(time_setup_layers(entry.instance, sampler::make_gd_loop_config(config)));
  }
  add_setup_layers(setup, out);

  service::Server server(server_config(nproc));
  if (!warm_cache(server, pool, args.seed)) out.fail("cache-warming request failed");
  const LoopResult loop = closed_loop(server, pool, args.seed, args.seconds, nproc);
  check_requests(loop, pool, out);

  std::vector<double> queue_wait;
  std::vector<double> exec;
  std::vector<double> cache_wait;
  Ratio amplify_ms_per_request;
  Ratio amplify_yield;
  Ratio collect_ms_per_round;
  Ratio rows_per_request;
  Ratio unique_yield;
  Ratio rows_per_harvest_s;
  Ratio bank_mb_per_request;
  for (const Finished& f : loop.finished) {
    const service::JobStats& s = f.stats;
    queue_wait.push_back(s.queue_wait_ms);
    exec.push_back(s.exec_ms);
    cache_wait.push_back(s.cache_wait_ms);
    collect_ms_per_round.num += s.harvest_ms;
    collect_ms_per_round.den += static_cast<double>(s.rounds);
    rows_per_request.num += static_cast<double>(s.rows_validated);
    rows_per_request.den += 1.0;
    bank_mb_per_request.num += static_cast<double>(s.bank_bytes) / 1e6;
    bank_mb_per_request.den += 1.0;
    if (f.kind == Kind::kAmplified) {
      amplify_ms_per_request.num += s.amplify_ms;
      amplify_ms_per_request.den += 1.0;
      amplify_yield.num += static_cast<double>(s.amplified_uniques);
      amplify_yield.den += static_cast<double>(s.amplified_candidates);
    } else if (f.kind == Kind::kPlain) {
      unique_yield.num += static_cast<double>(s.n_unique);
      unique_yield.den += static_cast<double>(s.rows_validated);
      rows_per_harvest_s.num += static_cast<double>(s.rows_validated);
      rows_per_harvest_s.den += s.harvest_ms / 1e3;
    }
  }
  const Ratio hits{static_cast<double>(loop.cache_after.hits - loop.cache_before.hits),
                   static_cast<double>(loop.cache_after.hits + loop.cache_after.misses -
                                       loop.cache_before.hits - loop.cache_before.misses)};
  const Ratio slices{static_cast<double>(loop.slices), static_cast<double>(loop.terminals)};
  const std::string note = count_note(loop.finished.size());

  out.add("core.collect_ms", collect_ms_per_round.value(), "ms",
          "JobStats harvest ms per round " + collect_ms_per_round.str());
  out.add("core.rows_validated", rows_per_request.value(), "count",
          "rows per request " + rows_per_request.str());
  out.add("core.unique_yield", unique_yield.value(), "ratio",
          "plain requests uniques/rows " + unique_yield.str());
  out.add("core.bank_mb", bank_mb_per_request.value(), "MB",
          "bank MB per request " + bank_mb_per_request.str());
  out.add("core.harvest_rows_per_worker_s", rows_per_harvest_s.value(), "1/s",
          "plain requests rows/harvest s " + rows_per_harvest_s.str());
  out.add("core.amplify_ms", amplify_ms_per_request.value(), "ms",
          "per amplified request " + amplify_ms_per_request.str());
  out.add("core.amplify_yield", amplify_yield.value(), "ratio",
          "amplified uniques/candidates " + amplify_yield.str());
  out.add("service.queue_wait_ms_p50", median(queue_wait), "ms", note);
  out.add("service.queue_wait_ms_p90", percentile(queue_wait, 90.0), "ms", note);
  out.add("service.exec_ms_p50", median(exec), "ms", note);
  out.add("service.cache_hit_ratio", hits.value(), "ratio", "hits/lookups " + hits.str());
  out.add("service.cache_wait_ms_p50", median(cache_wait), "ms", note);
  out.add("service.slices_per_request", slices.value(), "count",
          "slices/requests ended " + slices.str());
  return out;
}

}  // namespace perfbench
