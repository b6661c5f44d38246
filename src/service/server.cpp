#include "service/server.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/round_runner.hpp"
#include "core/unique_bank.hpp"
#include "telemetry/trace.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace hts::service {

namespace {

// Tracing reads clocks and job state only — never the RNG, never ordering
// — so traced runs stream bit-identical solutions.  The sink's locks are
// leaves (util/mutex.hpp item 5), so spans may be recorded under
// Server::mutex_ and Job::mutex alike.

/// Async-track category of the per-job spans; (cat, job id) keys one
/// Perfetto track covering submit -> finalize.
constexpr const char* kJobCat = "job";

/// The service's fault seams, in the order their injection counts render.
constexpr const char* kFaultSites[] = {
    fault_sites::kCompile, fault_sites::kEngineAlloc, fault_sites::kHarvest,
    fault_sites::kStreamPush, fault_sites::kSlice};

/// Admission model constants.  Weight of the newest finished job's exec
/// cost in the per-job cost EWMA.
constexpr double kCostEwmaAlpha = 0.2;
/// Floor for a degraded GD batch: shrinking below this costs more in
/// per-round overhead than it saves.
constexpr std::size_t kMinDegradedBatch = 64;
/// Retry backoff doubles this many times, then holds: the wait is at most
/// 1024x ServerConfig::retry_backoff_ms however many retries are allowed.
constexpr std::uint32_t kMaxBackoffDoublings = 10;

/// Interns an error's site string onto the static fault_sites constants so
/// the trace event carries a stable pointer (TraceEvent names are never
/// copied).  Unknown sites collapse onto "slice".
const char* intern_site(const std::string& site) {
  for (const char* known : kFaultSites) {
    if (site == known) return known;
  }
  return fault_sites::kSlice;
}

/// The snapshot's metric list.  Each value reads one field the server, its
/// plan cache or its fault injector already keeps (README "Observability");
/// a family's series stay adjacent for the renderer.
std::vector<telemetry::Metric> snapshot_metrics(
    const StatsSnapshot& snapshot, const util::FaultInjector& injector) {
  using Kind = telemetry::Metric::Kind;
  std::vector<telemetry::Metric> metrics;
  auto add = [&metrics](const char* name, double value,
                        telemetry::Labels labels = {},
                        Kind kind = Kind::kCounter) {
    metrics.push_back({name, std::move(labels), kind, value, {}});
  };
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const ServerStats& server = snapshot.server;
  add("hts_scheduler_queue_depth", count(snapshot.queue_depth), {},
      Kind::kGauge);
  add("hts_scheduler_running", count(snapshot.running), {}, Kind::kGauge);
  add("hts_scheduler_submitted_total", count(server.submitted));
  add("hts_scheduler_rejected_total", count(server.rejected));
  add("hts_scheduler_retried_total", count(server.retried));
  metrics.push_back({"hts_scheduler_slice_ms", {}, Kind::kHistogram, 0.0,
                     snapshot.slice_ms});
  const std::pair<JobStatus, std::uint64_t> outcomes[] = {
      {JobStatus::kCompleted, server.completed},
      {JobStatus::kDeadlineExpired, server.deadline_expired},
      {JobStatus::kCancelled, server.cancelled},
      {JobStatus::kCapped, server.capped},
      {JobStatus::kUnsat, server.unsat},
      {JobStatus::kFailed, server.failed},
      {JobStatus::kRejected, server.rejected}};
  for (const auto& [status, n] : outcomes) {
    add("hts_jobs_finalized_total", count(n),
        {{"status", job_status_name(status)}});
  }
  add("hts_plan_cache_hits_total", count(snapshot.plan_cache.hits));
  add("hts_plan_cache_misses_total", count(snapshot.plan_cache.misses));
  add("hts_plan_cache_evictions_total", count(snapshot.plan_cache.evictions));
  add("hts_plan_cache_inflight_waits_total",
      count(snapshot.plan_cache.inflight_waits));
  const sampler::LoopCounters& jobs = server.jobs;
  add("hts_gd_rounds_total", count(jobs.rounds));
  add("hts_gd_iterations_total", count(jobs.gd_iterations));
  add("hts_gd_restarts_total", count(jobs.restarted_rows),
      {{"kind", "solved"}});
  add("hts_gd_restarts_total", count(jobs.plateau_restarted_rows),
      {{"kind", "plateau"}});
  add("hts_gd_restarts_total", count(jobs.diversity_restarted_rows),
      {{"kind", "diversity"}});
  add("hts_harvest_rows_validated_total", count(jobs.rows_validated));
  add("hts_harvest_ms_total", jobs.harvest_ms);
  add("hts_amplify_candidates_total", count(jobs.amplified_candidates));
  add("hts_amplify_survivors_total", count(jobs.amplified_uniques));
  add("hts_stream_delivered_total", count(server.delivered));
  add("hts_stream_stall_ms_total", server.stall_ms);
  if (injector.armed()) {
    for (const char* site : kFaultSites) {
      add("hts_fault_injections_total", count(injector.injected(site)),
          {{"site", site}});
    }
  }
  return metrics;
}

}  // namespace

namespace detail {

/// A job's unique bank and the round runner that fills it, built as one
/// unit: nothing is banked before the runner exists, so a build that throws
/// leaves nothing to keep and a retry simply builds both again.  Only the
/// worker holding the job touches its session, and the mutex_ handoff on
/// re-queue orders successive slices, so the bank takes no lock.
struct Session {
  Session(const CompiledPlan& plan, sampler::GdProblem problem,
          const cnf::Formula& formula, sampler::RunOptions options,
          const sampler::GdLoopConfig& config)
      : bank(sampler::bank_key_bits(problem, config)),
        runner(*plan.compiled, *plan.eval_plan, std::move(problem), formula,
               std::move(options), config, bank) {}

  sampler::UniqueBank bank;
  sampler::RoundRunner<sampler::UniqueBank> runner;
};

/// One submitted request's full lifetime: scheduler bookkeeping, the lazily
/// built execution state (plan and session — created on the job's first
/// slice, released at finalize so terminal jobs hold no engine memory), and
/// the cross-thread stats clients poll.
///
/// Concurrency contract: the execution-state block is touched only by the
/// worker currently holding the job (jobs are in exactly one of ready_/
/// running_/terminal, never two places); `status` is atomic; `stats` is
/// guarded by `mutex` (annotated — Clang -Wthread-safety enforces it).
/// `last_pop_seq` and `enqueued_at_ms` are guarded by the *server* mutex_
/// across the enqueue -> pop handoff, a cross-object guard the analysis
/// cannot express on this struct, so those two stay comment-documented.
/// Lock order is server mutex_ -> job mutex; no path takes them in reverse.
struct Job {
  explicit Job(SamplingRequest req)
      : request(std::move(req)),
        stop(abort.token().with_budget(request.deadline_ms)),
        stream(std::make_shared<SolutionStream>(request.stream_capacity,
                                                request.on_solution)) {}

  SamplingRequest request;
  /// Assigned at submit, in submission order (the FIFO tie-break).
  std::uint64_t id = 0;
  /// Fired only by a client cancel or server shutdown: set means cancelled.
  util::StopSource abort;
  /// The job's one stop signal: `abort` plus the deadline counted from
  /// construction (== submission, so queue wait spends the budget).  EDF
  /// orders by its remaining_ms(); the slice polls it everywhere.  Never
  /// reassigned, so any thread may read it.
  const util::StopToken stop;
  std::shared_ptr<SolutionStream> stream;
  std::atomic<JobStatus> status{JobStatus::kQueued};

  // ---- execution state (worker-held; see contract above) ----
  std::shared_ptr<const CompiledPlan> plan;
  std::unique_ptr<Session> session;
  /// Rounds claimed so far; round r seeds util::Rng::stream(seed, r).
  /// Rolled back when a round throws mid-flight, so a retry re-runs the
  /// faulted round with the same RNG stream (bank dedup keeps delivery
  /// exactly-once).
  std::uint64_t rounds_started = 0;
  /// Retry re-enqueues consumed so far (worker-held, like rounds_started;
  /// the client-visible copy is stats.retries).
  std::uint32_t retries = 0;
  /// The last claimed round threw mid-flight: the next slice must re-run it
  /// to its natural end (skipping the pre-round stop check) so the stream
  /// converges to the fault-free trajectory instead of stopping at the
  /// retry boundary with the round half-delivered.
  bool replay_round = false;
  /// Phase marker for error attribution: which seam the slice is currently
  /// inside, so a real (non-injected) exception is blamed on the right
  /// site.  Worker-held; read only by the worker that just caught.
  const char* fail_site = fault_sites::kSlice;
  /// Round-robin stamp of the job's own last pop (guarded by the server
  /// mutex): among one client's deadline-tied jobs, the least recently
  /// scheduled one runs next, so re-queued long jobs interleave with their
  /// siblings instead of monopolizing the FIFO head.
  std::uint64_t last_pop_seq = 0;
  /// lifetime mark of the latest enqueue (written and read under the
  /// server mutex across the enqueue -> pop handoff).
  double enqueued_at_ms = 0.0;
  /// Earliest lifetime mark at which a retried job may be popped again
  /// (exponential backoff); 0 = immediately.  Guarded by the server mutex,
  /// like enqueued_at_ms.
  double not_before_ms = 0.0;
  /// Whether this job was counted into its client's live jobs at admission
  /// (rejected and post-shutdown jobs never are).  Guarded by the server
  /// mutex.
  bool usage_accounted = false;

  // ---- cross-thread accounting ----
  mutable util::Mutex mutex;
  util::CondVar done_cv;
  JobStats stats HTS_GUARDED_BY(mutex);
  util::Timer lifetime;

  /// The job's relative clock at an absolute util::monotonic_ns() stamp.
  /// Every boundary (enqueue, pop, slice end) captures `now_ns` once and
  /// derives both its *_ms stats delta and its trace-span timestamp from
  /// it, so the two bookkeeping views can never disagree.
  [[nodiscard]] double ms_at(std::uint64_t now_ns) const {
    return static_cast<double>(now_ns - lifetime.start_ns()) * 1e-6;
  }
  /// Absolute submission stamp (the async job track's begin).
  [[nodiscard]] std::uint64_t submit_ns() const { return lifetime.start_ns(); }

  /// Copies the session's counters (when it exists) into stats.  `rounds`
  /// stays the count of claimed rounds: a retried round runs twice but is
  /// claimed once.
  void publish_counters() HTS_REQUIRES(mutex) {
    if (session != nullptr) {
      stats.n_unique = session->bank.size();
      static_cast<sampler::LoopCounters&>(stats) = session->runner.counters();
    }
    stats.rounds = rounds_started;
    stats.delivered = stream->delivered();
  }
};

}  // namespace detail

using detail::Job;

// ---- JobHandle ---------------------------------------------------------------

JobHandle::JobHandle(std::shared_ptr<detail::Job> job) : job_(std::move(job)) {}

std::uint64_t JobHandle::id() const { return job_->id; }

JobStatus JobHandle::status() const {
  return job_->status.load(std::memory_order_acquire);
}

JobStats JobHandle::stats() const {
  util::LockGuard lock(job_->mutex);
  return job_->stats;
}

SolutionStream& JobHandle::stream() const { return *job_->stream; }

ErrorInfo JobHandle::error() const {
  util::LockGuard lock(job_->mutex);
  return job_->stats.error;
}

void JobHandle::cancel() const { job_->abort.request_stop(); }

// status is atomic, but the waits still hold job mutex: finalize() stores
// the terminal status under it before notifying, so a waiter can never
// check the predicate, miss the store, and then sleep through the notify.

JobStatus JobHandle::wait() const {
  util::LockGuard lock(job_->mutex);
  while (!job_status_terminal(job_->status.load(std::memory_order_acquire))) {
    job_->done_cv.wait(job_->mutex);
  }
  return job_->status.load(std::memory_order_acquire);
}

bool JobHandle::wait_for(double timeout_ms) const {
  const util::Timer timer;
  util::LockGuard lock(job_->mutex);
  while (!job_status_terminal(job_->status.load(std::memory_order_acquire))) {
    const double left = timeout_ms - timer.milliseconds();
    if (left <= 0.0) return false;
    job_->done_cv.wait_for_ms(job_->mutex, left);
  }
  return true;
}

// ---- Server ------------------------------------------------------------------

Server::Server(ServerConfig config)
    : config_(config),
      n_workers_(config.n_workers != 0
                     ? config.n_workers
                     : std::max<std::size_t>(
                           1, std::thread::hardware_concurrency())),
      cache_(config.plan_cache_capacity),
      slice_ms_({0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                 1000.0}),
      avg_job_cost_ms_(config.admission.initial_job_cost_ms) {
  if (config_.retry_backoff_ms < 0.0) config_.retry_backoff_ms = 0.0;
  // Arm the injector before any worker exists; a malformed spec throws out
  // of the constructor with no thread started.
  injector_ = util::FaultInjector::from_spec(
      config_.fault_spec.empty() ? util::FaultInjector::env_spec()
                                 : config_.fault_spec);
  workers_.reserve(n_workers_);
  try {
    for (std::size_t w = 0; w < n_workers_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    shutdown();  // joins the workers already started
    throw;
  }
}

Server::~Server() { shutdown(); }

JobHandle Server::submit(SamplingRequest request) {
  auto job = std::make_shared<Job>(std::move(request));
  enum class Outcome : std::uint8_t { kAccepted, kShutdown, kRejected };
  Outcome outcome = Outcome::kAccepted;
  ErrorInfo error;
  std::uint64_t enqueue_ns = 0;
  {
    util::LockGuard lock(mutex_);
    job->id = next_id_++;
    ++stats_.submitted;
    if (shutdown_) {
      outcome = Outcome::kShutdown;
    } else if (!admit_locked(*job, &error)) {
      outcome = Outcome::kRejected;
    } else {
      ClientState& client = clients_[job->request.client_id];
      ++client.live_jobs;
      client.reserved_bank_bytes += job->request.max_bank_bytes;
      job->usage_accounted = true;
      enqueue_ns = util::monotonic_ns();
      job->enqueued_at_ms = job->ms_at(enqueue_ns);
      ready_.push_back(job);
    }
  }
  // The job's async trace track opens at submission for every outcome;
  // finalize() closes it, so even an immediately rejected job renders as a
  // (tiny) balanced span.
  if (telemetry::trace_enabled()) {
    telemetry::TraceSink::global().async_begin("job", kJobCat, job->id,
                                               job->submit_ns());
  }
  switch (outcome) {
    case Outcome::kShutdown:
      job->abort.request_stop();
      finalize(job, JobStatus::kCancelled);
      break;
    case Outcome::kRejected: {
      // Rejected before any compile or engine work: record the reason and
      // finalize immediately — the stream closes, wait() returns, and a
      // blocked next() sees end-of-stream, all within submit().
      {
        util::LockGuard jlock(job->mutex);
        job->stats.error = error;
      }
      if (telemetry::trace_enabled()) {
        telemetry::TraceSink::global().async_instant(
            "rejected", kJobCat, job->id, util::monotonic_ns());
      }
      finalize(job, JobStatus::kRejected);
      break;
    }
    case Outcome::kAccepted:
      if (telemetry::trace_enabled()) {
        telemetry::TraceSink::global().async_begin("queue", kJobCat, job->id,
                                                   enqueue_ns);
      }
      work_cv_.notify_one();
      break;
  }
  return JobHandle(job);
}

bool Server::admit_locked(Job& job, ErrorInfo* error) {
  const SamplingRequest& request = job.request;
  const AdmissionConfig& admission = config_.admission;
  auto reject = [&](const std::string& message) {
    error->category = ErrorCategory::kAdmission;
    error->site = "submit";
    error->message = message;
    return false;
  };

  // A request the loop cannot run is malformed, not infeasible: reject it
  // here with the rule every sampler enforces, rather than let the
  // engine's batch invariant abort the process, a negative iteration count
  // size the round's buffers, or a zero or NaN step hold a worker until the
  // deadline without converging.
  try {
    sampler::validate_config(request.config, request.formula.n_vars());
  } catch (const std::invalid_argument& e) {
    return reject(e.what());
  }

  // Quotas next — they hold regardless of the feasibility switch.
  if (admission.max_client_jobs != 0 || admission.max_client_bank_bytes != 0) {
    const auto it = clients_.find(request.client_id);
    const ClientState usage = it == clients_.end() ? ClientState{} : it->second;
    if (admission.max_client_jobs != 0 &&
        usage.live_jobs >= admission.max_client_jobs) {
      return reject("client job quota exceeded (" +
                    std::to_string(usage.live_jobs) + "/" +
                    std::to_string(admission.max_client_jobs) + " live jobs)");
    }
    if (admission.max_client_bank_bytes != 0) {
      if (request.max_bank_bytes == 0) {
        return reject(
            "bank-byte quota in force: request must set max_bank_bytes");
      }
      if (usage.reserved_bank_bytes + request.max_bank_bytes >
          admission.max_client_bank_bytes) {
        return reject(
            "client bank-byte quota exceeded (" +
            std::to_string(usage.reserved_bank_bytes) + " reserved + " +
            std::to_string(request.max_bank_bytes) + " requested > " +
            std::to_string(admission.max_client_bank_bytes) + ")");
      }
    }
  }

  if (!admission.enabled || request.deadline_ms <= 0.0) return true;

  // Feasibility: project this request's queue wait from the calibrated
  // per-job cost and the work already ahead of it (running slices plus
  // queued jobs with earlier deadlines — EDF serves those first).
  std::size_t ahead = running_.size();
  for (const std::shared_ptr<Job>& queued : ready_) {
    if (queued->stop.remaining_ms() < request.deadline_ms) ++ahead;
  }
  const double cost = avg_job_cost_ms_;
  const double wait =
      cost * static_cast<double>(ahead) / static_cast<double>(n_workers_);
  const double budget = request.deadline_ms / admission.safety_factor;
  const double slack = budget - wait;  // time left for the job's own work
  if (slack >= cost) return true;

  // Infeasible as submitted.  A shrunk batch costs roughly proportionally
  // less per round, so degrade by the factor needed to fit — if the config
  // allows it and the factor is sane.
  if (admission.max_degrade > 1.0 && slack > 0.0) {
    const double shrink = cost / slack;
    if (shrink <= admission.max_degrade) {
      job.request.config.batch =
          std::max(kMinDegradedBatch,
                   static_cast<std::size_t>(
                       static_cast<double>(job.request.config.batch) / shrink));
      {
        util::LockGuard jlock(job.mutex);
        job.stats.degraded = true;
      }
      ++stats_.degraded;
      return true;
    }
  }
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "deadline infeasible: projected wait %.1fms + cost %.1fms "
                "exceeds deadline %.1fms / safety %.2f",
                wait, cost, request.deadline_ms, admission.safety_factor);
  return reject(buffer);
}

void Server::shutdown() {
  std::vector<std::shared_ptr<Job>> outstanding;
  {
    util::LockGuard lock(mutex_);
    shutdown_ = true;
    outstanding.insert(outstanding.end(), ready_.begin(), ready_.end());
    outstanding.insert(outstanding.end(), running_.begin(), running_.end());
  }
  // Abort everything in flight; workers retire the ready queue (each pop
  // sees the cancel and finalizes without spending a slice) and then exit.
  for (const std::shared_ptr<Job>& job : outstanding) job->abort.request_stop();
  work_cv_.notify_all();
  std::call_once(join_once_, [this] {
    for (std::thread& worker : workers_) worker.join();
  });
}

ServerStats Server::stats() const {
  util::LockGuard lock(mutex_);
  return stats_;
}

StatsSnapshot Server::stats_snapshot() const {
  StatsSnapshot snapshot;
  {
    util::LockGuard lock(mutex_);
    snapshot.server = stats_;
    snapshot.queue_depth = ready_.size();
    snapshot.running = running_.size();
    snapshot.slice_ms = slice_ms_;
  }
  snapshot.plan_cache = cache_.stats();
  snapshot.metrics_prometheus =
      telemetry::render_prometheus(snapshot_metrics(snapshot, injector_));
  return snapshot;
}

bool Server::schedules_before_locked(const Job& a, const Job& b) const {
  // Cancelled jobs first: retiring one frees its slot without spending a
  // slice, so a cancelled job never waits behind real work.
  const bool abort_a = a.abort.stop_requested();
  const bool abort_b = b.abort.stop_requested();
  if (abort_a != abort_b) return abort_a;
  // EDF on remaining budget (both read "now" within one scan, so this
  // orders like absolute deadlines; expired jobs read negative and come
  // next); no-deadline jobs report ~1e18 and sort last together, where the
  // round-robin below takes over.
  const double da = a.stop.remaining_ms();
  const double db = b.stop.remaining_ms();
  if (da != db) return da < db;
  const auto stamp = [this](std::uint64_t client) -> std::uint64_t {
    const auto it = clients_.find(client);
    return it == clients_.end() ? 0 : it->second.last_pop;
  };
  const std::uint64_t ca = stamp(a.request.client_id);
  const std::uint64_t cb = stamp(b.request.client_id);
  if (ca != cb) return ca < cb;  // least recently scheduled client first
  // Within one client: round-robin across its jobs too (a re-queued job
  // carries a fresh stamp, so an unserved sibling goes first), then FIFO.
  if (a.last_pop_seq != b.last_pop_seq) return a.last_pop_seq < b.last_pop_seq;
  return a.id < b.id;
}

bool Server::eligible_locked(const Job& job) const {
  // Cancelled/expired jobs bypass any backoff: retiring them is cheap and
  // frees their slot immediately.
  if (job.stop.stop_requested()) return true;
  return job.not_before_ms <= 0.0 ||
         job.lifetime.milliseconds() >= job.not_before_ms;
}

std::shared_ptr<Job> Server::pop_best_locked() {
  std::size_t best = ready_.size();
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (!eligible_locked(*ready_[i])) continue;
    if (best == ready_.size() ||
        schedules_before_locked(*ready_[i], *ready_[best])) {
      best = i;
    }
  }
  if (best == ready_.size()) return nullptr;  // all queued jobs in backoff
  std::shared_ptr<Job> job = ready_[best];
  ready_.erase(ready_.begin() +
               static_cast<std::ptrdiff_t>(best));
  clients_[job->request.client_id].last_pop = ++pop_seq_;
  job->last_pop_seq = pop_seq_;
  ++stats_.slices;
  // One clock capture feeds the stats delta and the trace span alike.
  const std::uint64_t now_ns = util::monotonic_ns();
  {
    util::LockGuard jlock(job->mutex);
    job->stats.queue_wait_ms += job->ms_at(now_ns) - job->enqueued_at_ms;
  }
  if (telemetry::trace_enabled()) {
    telemetry::TraceSink::global().async_end("queue", kJobCat, job->id, now_ns);
  }
  return job;
}

void Server::worker_loop(std::size_t worker_index) {
  if (telemetry::trace_enabled()) {
    telemetry::TraceSink::global().set_thread_name(
        "worker-" + std::to_string(worker_index));
  }
  for (;;) {
    std::shared_ptr<Job> job;
    {
      util::LockGuard lock(mutex_);
      for (;;) {
        if (!ready_.empty()) {
          job = pop_best_locked();
          if (job != nullptr) break;
        }
        if (shutdown_ && ready_.empty()) return;
        // Sleep until work arrives — but never past the nearest
        // retry-backoff expiry, so a recovered job is not stranded on an
        // otherwise idle fleet.  Running jobs need no watch: their slices
        // poll their own stop tokens, deadline included.
        double margin_ms = std::numeric_limits<double>::infinity();
        for (const std::shared_ptr<Job>& queued : ready_) {
          margin_ms = std::min(
              margin_ms, queued->not_before_ms - queued->lifetime.milliseconds());
        }
        if (margin_ms > 1e17) {
          work_cv_.wait(mutex_);
        } else {
          margin_ms = std::clamp(margin_ms, 1.0, 50.0);
          work_cv_.wait_for_ms(mutex_, margin_ms);
        }
      }
      job->status.store(JobStatus::kRunning, std::memory_order_release);
      running_.push_back(job);
    }

    // Containment boundary: nothing a slice throws may reach the scheduler
    // loop.  Classify what escaped, attribute it to the seam the slice was
    // inside, and either retry (bounded, backed off) or finalize kFailed —
    // the worker and every other job continue either way.
    const std::uint64_t slice_begin_ns = util::monotonic_ns();
    if (telemetry::trace_enabled()) {
      telemetry::TraceSink::global().async_begin("slice", kJobCat, job->id,
                                                 slice_begin_ns);
    }
    JobStatus outcome = JobStatus::kRunning;
    ErrorInfo error;
    try {
      outcome = run_slice(*job);
    } catch (const util::TransientFaultError& fault) {
      error = {ErrorCategory::kTransient, fault.site(), fault.what()};
    } catch (const util::FaultError& fault) {
      error = {fault.site() == fault_sites::kCompile ? ErrorCategory::kCompile
                                                     : ErrorCategory::kExecution,
               fault.site(), fault.what()};
    } catch (const std::bad_alloc& e) {
      error = {ErrorCategory::kResource, job->fail_site, e.what()};
    } catch (const std::exception& e) {
      error = {job->fail_site == fault_sites::kCompile
                   ? ErrorCategory::kCompile
                   : ErrorCategory::kExecution,
               job->fail_site, e.what()};
    } catch (...) {
      error = {ErrorCategory::kInternal, job->fail_site,
               "non-standard exception"};
    }

    const std::uint64_t slice_end_ns = util::monotonic_ns();
    double backoff_ms = 0.0;
    bool retried = false;
    if (!error.ok()) {
      const bool retryable = error.category == ErrorCategory::kTransient ||
                             error.category == ErrorCategory::kResource;
      if (retryable && job->retries < config_.max_retries &&
          !job->stop.stop_requested()) {
        // Exponential backoff: base, 2x base, 4x base, ..., capped at
        // 1024x base.  The job keeps its bank and built state, so the
        // retried round re-runs with the same RNG stream and dedups into
        // the same bank (exactly-once delivery; see rounds_started).
        backoff_ms = std::ldexp(
            config_.retry_backoff_ms,
            static_cast<int>(std::min(job->retries, kMaxBackoffDoublings)));
        ++job->retries;
        retried = true;
        outcome = JobStatus::kRunning;  // re-enqueue below
      } else {
        outcome = JobStatus::kFailed;
      }
      util::LockGuard jlock(job->mutex);
      job->stats.error = error;  // last trouble wins, kept even on recovery
      job->stats.retries = job->retries;
    }
    {
      // Same slice_begin_ns/slice_end_ns pair feeds exec_ms, the slice
      // histogram, and both trace spans — one clock read per boundary.
      util::LockGuard jlock(job->mutex);
      job->stats.exec_ms +=
          job->ms_at(slice_end_ns) - job->ms_at(slice_begin_ns);
    }
    if (telemetry::trace_enabled()) {
      telemetry::TraceSink& sink = telemetry::TraceSink::global();
      // Worker-track view of the same interval: which worker ran the slice.
      sink.complete("slice", "service", slice_begin_ns, slice_end_ns);
      if (!error.ok()) {
        sink.async_instant(intern_site(error.site), kJobCat, job->id,
                           slice_end_ns);
      }
      if (retried) {
        sink.async_instant("retry", kJobCat, job->id, slice_end_ns);
      }
      sink.async_end("slice", kJobCat, job->id, slice_end_ns);
    }

    bool requeued = false;
    {
      util::LockGuard lock(mutex_);
      running_.erase(std::find(running_.begin(), running_.end(), job));
      slice_ms_.observe(static_cast<double>(slice_end_ns - slice_begin_ns) *
                        1e-6);
      if (retried) ++stats_.retried;
      if (outcome == JobStatus::kRunning) {
        const std::uint64_t requeue_ns = util::monotonic_ns();
        job->enqueued_at_ms = job->ms_at(requeue_ns);
        job->not_before_ms =
            backoff_ms > 0.0 ? job->enqueued_at_ms + backoff_ms : 0.0;
        job->status.store(JobStatus::kQueued, std::memory_order_release);
        ready_.push_back(job);
        requeued = true;
        if (telemetry::trace_enabled()) {
          telemetry::TraceSink::global().async_begin("queue", kJobCat, job->id,
                                                     requeue_ns);
        }
      }
    }
    if (requeued) {
      work_cv_.notify_one();
    } else {
      finalize(job, outcome);
    }
  }
}

JobStatus Server::run_slice(Job& job) {
  const SamplingRequest& request = job.request;

  // A job can be cancelled (client, shutdown) or expire while it sits in
  // the queue; retire it before paying for compilation or engine
  // allocation.
  if (job.abort.stop_requested()) return JobStatus::kCancelled;
  if (job.stop.stop_requested()) return JobStatus::kDeadlineExpired;

  // A retry keeps whatever was built: the plan, and the session (built as
  // one unit, see Session) with the uniques its bank holds from earlier
  // rounds.
  if (job.plan == nullptr) {
    // First slice: pull the compiled artifacts from the cache (or compile
    // them, once per distinct formula/options).
    job.fail_site = fault_sites::kCompile;
    const prob::CompiledCircuit::Options compile_options{
        request.config.cone_only, request.config.optimize_tape};
    const std::uint64_t lookup_begin_ns = util::monotonic_ns();
    bool hit = false;
    job.plan = cache_.get_or_compile(request.formula, compile_options, &hit,
                                     &injector_);
    const std::uint64_t lookup_end_ns = util::monotonic_ns();
    const double lookup_ms =
        static_cast<double>(lookup_end_ns - lookup_begin_ns) * 1e-6;
    {
      // Billing: the plan's one-time build cost (recorded on the cache
      // entry) is charged only to the job that actually compiled it; a hit
      // — including a wait on another job's in-flight build — is pure cache
      // wait.  No double-accounting: fleet-wide sum(compile_ms) equals the
      // cost of the distinct plans built.
      util::LockGuard jlock(job.mutex);
      if (hit) {
        job.stats.cache_wait_ms += lookup_ms;
      } else {
        job.stats.compile_ms += job.plan->compile_ms;
        job.stats.cache_wait_ms +=
            std::max(0.0, lookup_ms - job.plan->compile_ms);
      }
      job.stats.plan_cache_hit = hit;
    }
    if (telemetry::trace_enabled()) {
      const char* span = hit ? "cache_wait" : "compile";
      telemetry::TraceSink& sink = telemetry::TraceSink::global();
      sink.complete(span, "service", lookup_begin_ns, lookup_end_ns);
      sink.async_begin(span, kJobCat, job.id, lookup_begin_ns);
      sink.async_end(span, kJobCat, job.id, lookup_end_ns);
    }
    if (job.plan->transformed.proven_unsat) return JobStatus::kUnsat;
  }

  if (job.session == nullptr) {
    // Build the job's private execution state around the shared plan.
    job.fail_site = fault_sites::kEngineAlloc;
    injector_.maybe_fault(fault_sites::kEngineAlloc);
    sampler::RunOptions options;
    options.min_solutions = request.target_uniques;
    options.seed = request.seed;
    const bool deliver =
        request.deliver_solutions || static_cast<bool>(request.on_solution);
    options.store_limit = deliver ? std::numeric_limits<std::size_t>::max() : 0;
    options.stop = job.stop;
    sampler::GdProblem problem;
    problem.circuit = &job.plan->transformed.circuit;
    problem.var_signal = &job.plan->transformed.var_signal;
    problem.input_vars = &job.plan->transformed.input_vars;
    // Sampling set (amplifier flip support + projected dedup): an explicit
    // per-request set wins, else the formula's own 'c ind' declaration.
    // The problem owns a normalized copy — request sets are caller-supplied
    // and unvalidated, and ownership (rather than a pointer into the
    // request) means job moves and retry replay can never dangle.
    if (!request.sampling_set.empty()) {
      problem.sampling_set = sampler::normalize_sampling_set(
          request.sampling_set, problem.var_signal->size());
    } else if (request.formula.has_sampling_set()) {
      problem.sampling_set = request.formula.sampling_set();
    }
    job.session = std::make_unique<detail::Session>(
        *job.plan, std::move(problem), request.formula, std::move(options),
        request.config);
  }
  job.fail_site = fault_sites::kSlice;
  sampler::UniqueBank& bank = job.session->bank;
  sampler::RoundRunner<sampler::UniqueBank>& runner = job.session->runner;
  std::vector<cnf::Assignment>& solutions = runner.result().solutions;

  auto reached_target = [&] {
    return request.target_uniques > 0 && bank.size() >= request.target_uniques;
  };
  auto capped = [&] {
    return (request.max_uniques > 0 && bank.size() >= request.max_uniques) ||
           (request.max_bank_bytes > 0 &&
            bank.size_bytes() >= request.max_bank_bytes);
  };
  // New uniques land in the runner's result().solutions in harvest order;
  // hand them to the sink and update the live counters after every
  // harvest.  On a throw mid-delivery, the already-pushed prefix is erased
  // and the rest stays queued — a retry delivers exactly the missing suffix
  // (the re-run round's harvest re-inserts into the bank, so nothing is
  // appended twice).
  auto checkpoint = [&](int) {
    job.fail_site = fault_sites::kHarvest;
    injector_.maybe_fault(fault_sites::kHarvest);
    job.fail_site = fault_sites::kStreamPush;
    const bool trace_deliver = telemetry::trace_enabled() && !solutions.empty();
    const std::uint64_t deliver_begin_ns =
        trace_deliver ? util::monotonic_ns() : 0;
    std::size_t pushed = 0;
    try {
      for (cnf::Assignment& assignment : solutions) {
        injector_.maybe_fault(fault_sites::kStreamPush);
        if (!job.stream->push(std::move(assignment), job.stop)) {
          break;  // dropped: consumer cancelled or the job is winding down
        }
        ++pushed;
      }
    } catch (...) {
      solutions.erase(solutions.begin(),
                      solutions.begin() + static_cast<std::ptrdiff_t>(pushed));
      throw;
    }
    if (trace_deliver) {
      telemetry::TraceSink::global().complete("deliver", "service",
                                              deliver_begin_ns,
                                              util::monotonic_ns());
    }
    solutions.clear();
    job.fail_site = fault_sites::kSlice;
    util::LockGuard jlock(job.mutex);
    job.publish_counters();
  };
  auto stop_now = [&] {
    return reached_target() || capped() || job.stop.stop_requested();
  };

  // Leftover deliveries from a faulted attempt (the aborted round banked
  // them, but the throw cut the push loop short) are drained before any
  // stop check — otherwise a retried job whose bank already meets the
  // target would finalize kCompleted with solutions undelivered.
  if (!solutions.empty()) checkpoint(0);

  // One slice is one round.  A replayed round runs to its natural end even
  // if the bank already meets the target: the golden (fault-free) run would
  // have finished the round before stopping, and convergence to the golden
  // stream is the retry contract.  (Cancels and deadlines still cut in: the
  // early-retire checks above and run_round's own stop polls see them.)
  if (job.replay_round || !stop_now()) {
    injector_.maybe_fault(fault_sites::kSlice);
    // Per-round RNG streams make the job's trajectory a pure function of
    // (seed, round index) — scheduling order and fleet size never reach it.
    util::Rng rng = util::Rng::stream(request.seed, job.rounds_started);
    ++job.rounds_started;
    try {
      runner.run_round(rng, checkpoint, stop_now);
      job.replay_round = false;
    } catch (...) {
      // Un-claim the round: a retry re-runs it with the identical RNG
      // stream, and the bank dedups whatever the aborted attempt already
      // harvested.
      --job.rounds_started;
      job.replay_round = true;
      throw;
    }
  }

  if (reached_target()) return JobStatus::kCompleted;
  if (job.abort.stop_requested()) return JobStatus::kCancelled;
  if (capped()) return JobStatus::kCapped;
  if (job.stop.stop_requested()) return JobStatus::kDeadlineExpired;
  return JobStatus::kRunning;
}

void Server::finalize(const std::shared_ptr<Job>& job, JobStatus status) {
  // One clock read closes the job: wall_ms and the async track's end are
  // derived from the same stamp.
  const std::uint64_t finalize_ns = util::monotonic_ns();
  double exec_ms = 0.0;
  sampler::LoopCounters counters;
  std::uint64_t delivered = 0;
  {
    util::LockGuard jlock(job->mutex);
    JobStats& stats = job->stats;
    stats.wall_ms = job->ms_at(finalize_ns);
    job->publish_counters();
    if (job->session) stats.bank_bytes = job->session->bank.size_bytes();
    exec_ms = stats.exec_ms;
    counters = static_cast<const sampler::LoopCounters&>(stats);
    delivered = stats.delivered;
  }
  // Release the execution state (the session borrows the plan): a terminal
  // job reachable through lingering handles must not pin engine buffers or
  // the compiled plan.
  job->session.reset();
  job->plan.reset();
  job->stream->close();
  const double stall_ms = job->stream->stall_ms();
  // Fleet counters move before the terminal status is visible, so a client
  // that wait()s and then reads Server::stats() observes its own job.
  {
    util::LockGuard lock(mutex_);
    // Release the client's live job and quota reservation (only if
    // admission granted them — rejected and post-shutdown jobs were never
    // accounted), and drop its record with its last live job.
    if (job->usage_accounted) {
      const auto it = clients_.find(job->request.client_id);
      if (it != clients_.end()) {
        ClientState& client = it->second;
        --client.live_jobs;
        client.reserved_bank_bytes -= job->request.max_bank_bytes;
        if (client.live_jobs == 0) clients_.erase(it);
      }
      job->usage_accounted = false;
    }
    // Feed the admission model: jobs that actually held a worker calibrate
    // the per-job cost estimate (rejected/never-scheduled ones say nothing
    // about execution cost).
    if (exec_ms > 0.0) {
      avg_job_cost_ms_ =
          (1.0 - kCostEwmaAlpha) * avg_job_cost_ms_ + kCostEwmaAlpha * exec_ms;
    }
    switch (status) {
      case JobStatus::kCompleted: ++stats_.completed; break;
      case JobStatus::kDeadlineExpired: ++stats_.deadline_expired; break;
      case JobStatus::kCancelled: ++stats_.cancelled; break;
      case JobStatus::kCapped: ++stats_.capped; break;
      case JobStatus::kUnsat: ++stats_.unsat; break;
      case JobStatus::kFailed: ++stats_.failed; break;
      case JobStatus::kRejected: ++stats_.rejected; break;
      case JobStatus::kQueued:
      case JobStatus::kRunning: break;  // unreachable: finalize is terminal
    }
    stats_.jobs += counters;
    stats_.delivered += delivered;
    stats_.stall_ms += stall_ms;
  }
  {
    util::LockGuard jlock(job->mutex);
    job->status.store(status, std::memory_order_release);
  }
  job->done_cv.notify_all();
  if (telemetry::trace_enabled()) {
    telemetry::TraceSink& sink = telemetry::TraceSink::global();
    sink.async_instant(job_status_name(status), kJobCat, job->id, finalize_ns);
    sink.async_end("job", kJobCat, job->id, finalize_ns);
  }
}

}  // namespace hts::service
