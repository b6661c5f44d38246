#pragma once

// In-process sampling service: many concurrent SamplingRequests, one
// machine.
//
// A Server owns a fixed worker fleet (one std::thread per scheduler loop)
// and a compiled-plan cache.  submit() is non-blocking: the request joins
// a fair run queue and the returned JobHandle is the client's view of the
// job — its solution stream, live stats, cancellation, and completion
// wait.
//
// Scheduling is earliest-deadline-first over *time slices*: a worker pops
// the queued job with the nearest deadline (no-deadline jobs sort last, as
// batch traffic), runs one GD round, and re-queues the job, so a long
// request cannot occupy a worker beyond one slice while a short-deadline
// request waits — no head-of-line blocking.  Deadline ties (notably the
// all-batch case) break round-robin across client_ids, then FIFO by
// submission, so one chatty client cannot crowd out another.
// A job's deadline rides in its util::StopToken, together with its cancel
// source, so one signal covers both.  A running slice polls that token at
// iteration boundaries, harvest blocks, amplifier bases and stream pushes,
// so it winds down within one step that cannot be interrupted.  An expired
// queued job sorts ahead of live ones and the next free worker retires it
// without spending a slice.
//
// Every job's solution stream is deterministic in (formula, seed, config):
// rounds execute sequentially per job and round r draws from
// util::Rng::stream(seed, r), so fleet size and scheduling interleave
// change only timing, never results.
//
// Faults are contained per job: any exception escaping a slice (compile,
// allocation, harvest, delivery) finalizes that job kFailed with an
// ErrorInfo naming the seam — its stream closed, the fleet and every other
// job untouched.  Retryable categories (kTransient/kResource) are
// re-enqueued with exponential backoff up to ServerConfig::max_retries
// first.  Admission control (AdmissionConfig) can reject or degrade
// requests at submit(), before any compile, and a deterministic
// fault injector (HTS_FAULT_SPEC) exercises every one of these paths
// reproducibly.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/plan_cache.hpp"
#include "service/request.hpp"
#include "service/solution_stream.hpp"
#include "telemetry/metrics.hpp"
#include "util/fault_injector.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::service {

namespace detail {
struct Job;
}

/// Admission control: decide at submit() — before any compile or engine
/// allocation — whether a request can plausibly be served, instead of
/// letting it queue, burn a compile, and time out anyway.
///
/// The feasibility model is deliberately cheap: the server keeps an EWMA of
/// finished jobs' execution cost (seeded with initial_job_cost_ms until the
/// first job lands), projects this request's queue wait as
///   est_wait = (running + earlier-deadline queued) * avg_cost / n_workers,
/// and admits when  safety_factor * (est_wait + avg_cost) <= deadline_ms.
/// An infeasible request is either *degraded* — its GD batch shrunk by the
/// factor needed to fit (cost scales roughly with batch), bounded by
/// max_degrade — or finalized kRejected with an ErrorInfo reason, without
/// ever touching the plan cache.
struct AdmissionConfig {
  /// Master switch for the deadline-feasibility check.  Off by default: an
  /// unconfigured server accepts everything, exactly as before.  Quotas
  /// below are enforced whenever nonzero, independent of this switch.
  bool enabled = false;
  /// Per-job execution-cost prior (ms) used until the EWMA has data.
  double initial_job_cost_ms = 5.0;
  /// Head-room multiplier on the projected wait + cost; > 1 rejects
  /// requests that would only fit if every estimate were exact.
  double safety_factor = 1.5;
  /// Largest batch-shrink factor admission may apply to fit a deadline
  /// (1.0 = never degrade, reject instead).  A degraded job's stream is a
  /// pure function of the *degraded* config; JobStats::degraded records it.
  /// A degraded batch never drops below 64 rows.
  double max_degrade = 1.0;
  /// Per-client cap on live (queued + running) jobs; 0 = unlimited.
  std::size_t max_client_jobs = 0;
  /// Per-client cap on summed bank-byte reservations (each request reserves
  /// its max_bank_bytes); 0 = unlimited.  Under a nonzero cap, requests
  /// with max_bank_bytes == 0 are rejected — an unbounded bank cannot be
  /// reserved against a quota.
  std::size_t max_client_bank_bytes = 0;
};

struct ServerConfig {
  /// Worker fleet size; 0 = hardware concurrency.  Each worker runs one
  /// job slice (one GD round) at a time, so this bounds concurrently
  /// resident engines.
  std::size_t n_workers = 0;
  /// Plan-cache capacity in entries (distinct formula/options pairs).
  std::size_t plan_cache_capacity = 32;
  /// Admission control & per-client quotas (see AdmissionConfig).
  AdmissionConfig admission = {};
  /// Re-enqueues granted to a job whose slice throws a retryable error
  /// (ErrorCategory kTransient/kResource) before it finalizes kFailed.
  std::uint32_t max_retries = 2;
  /// Base backoff before a retried job is eligible again; doubles per
  /// retry up to 1024x (10 ms, 20 ms, 40 ms, ..., then 10.24 s each).
  double retry_backoff_ms = 10.0;
  /// Fault-injection spec (util::FaultInjector grammar).  Empty = inherit
  /// the HTS_FAULT_SPEC environment variable; "none" = explicitly disarmed
  /// regardless of the environment.  Malformed specs throw from the Server
  /// constructor — a chaos run with a typo must not silently pass.
  std::string fault_spec = {};
};

/// Fleet-level counters (monotone over the server's lifetime).  The job
/// totals at the end cover terminal jobs only: finalize adds each job's
/// final JobStats once, so a job still running shows up when it ends.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t capped = 0;
  std::uint64_t unsat = 0;
  /// Jobs finalized kFailed (an error escaped and retries were exhausted
  /// or inapplicable).
  std::uint64_t failed = 0;
  /// Jobs refused at submit() by admission control or quotas.
  std::uint64_t rejected = 0;
  /// Jobs admitted with a shrunk batch (JobStats::degraded).
  std::uint64_t degraded = 0;
  /// Transient-retry re-enqueues across all jobs (not jobs retried).
  std::uint64_t retried = 0;
  /// Scheduling slices executed (queue pops that ran work).
  std::uint64_t slices = 0;
  /// Sum of the terminal jobs' loop counters (JobStats, so `rounds` counts
  /// claimed rounds).  engine_memory_bytes and weighted_inputs mean nothing
  /// summed across jobs.
  sampler::LoopCounters jobs;
  /// Sum of the terminal jobs' JobStats::delivered.
  std::uint64_t delivered = 0;
  /// Time the terminal jobs' workers spent blocked on a full solution
  /// stream (SolutionStream::stall_ms).
  double stall_ms = 0.0;
};

/// One live pull of everything the server knows about itself: fleet
/// counters, plan-cache stats, instantaneous queue state, the slice-duration
/// histogram, and all of it rendered as Prometheus text.  This is the
/// in-process surface a future network front-end serves from /metrics, and
/// what serve_cli --metrics prints.  Metrics are per Server and are built
/// here, from the counters above and the fault injector's, when asked for;
/// nothing records them as events happen.
struct StatsSnapshot {
  ServerStats server;
  PlanCache::Stats plan_cache;
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  /// Duration in ms of every slice run so far; its count equals
  /// server.slices once no slice is running.
  telemetry::Histogram slice_ms;
  /// The fields above plus FaultInjector::injected per seam, in the
  /// Prometheus text-exposition format (README "Observability" lists each
  /// metric and its source field).
  std::string metrics_prometheus;
};

/// Client-side view of a submitted job.  Cheap to copy; the underlying job
/// outlives the server's interest in it as long as any handle remains.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return job_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] JobStatus status() const;
  /// Consistent snapshot; final once status() is terminal.
  [[nodiscard]] JobStats stats() const;
  /// The job's error record (stats().error shortcut): the admission reason
  /// for kRejected, the failing seam + message for kFailed, the last
  /// retried trouble for jobs that recovered, ok() otherwise.
  [[nodiscard]] ErrorInfo error() const;
  /// The job's delivery channel (see SolutionStream).  Valid for the
  /// handle's lifetime; closed when the job reaches a terminal status.
  [[nodiscard]] SolutionStream& stream() const;
  /// Requests cooperative cancellation; the job finalizes kCancelled with
  /// whatever it has at the next boundary.  Idempotent, non-blocking.
  void cancel() const;
  /// Blocks until the job is terminal; returns the final status.
  JobStatus wait() const;
  /// Bounded wait; true when the job is terminal.
  bool wait_for(double timeout_ms) const;

 private:
  friend class Server;
  explicit JobHandle(std::shared_ptr<detail::Job> job);

  std::shared_ptr<detail::Job> job_;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a request; non-blocking.  After shutdown(), returns an
  /// already-cancelled handle.
  [[nodiscard]] JobHandle submit(SamplingRequest request) HTS_EXCLUDES(mutex_);

  /// Cancels every queued and running job, drains the fleet, and joins the
  /// workers.  Idempotent and safe to call from several threads at once:
  /// every call returns only after the fleet has stopped.  Called by the
  /// destructor.
  void shutdown() HTS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t n_workers() const { return n_workers_; }
  [[nodiscard]] ServerStats stats() const HTS_EXCLUDES(mutex_);
  /// Live in-process pull: fleet + cache counters, queue state, the slice
  /// histogram, and their Prometheus rendering.
  [[nodiscard]] StatsSnapshot stats_snapshot() const HTS_EXCLUDES(mutex_);
  [[nodiscard]] PlanCache::Stats plan_cache_stats() const {
    return cache_.stats();
  }
  [[nodiscard]] std::size_t plan_cache_size() const { return cache_.size(); }
  /// The server's fault injector (disarmed unless a spec was configured);
  /// chaos tests read its hit/injection counters per seam.
  [[nodiscard]] const util::FaultInjector& fault_injector() const {
    return injector_;
  }

 private:
  /// Everything the server keeps per client: the live (queued + running)
  /// jobs and bank-byte reservations the quotas check, and the round-robin
  /// stamp of the client's latest pop.  One entry per client with a live
  /// job; it is erased when the last one finalizes, so a long-lived server
  /// holds no state per client_id ever seen (a returning client restarts as
  /// "least recently scheduled", exactly like a new one).
  struct ClientState {
    std::size_t live_jobs = 0;
    std::size_t reserved_bank_bytes = 0;
    std::uint64_t last_pop = 0;
  };

  void worker_loop(std::size_t worker_index) HTS_EXCLUDES(mutex_);
  /// Admission decision for a fresh submission: malformed configs
  /// (sampler::validate_config) first, then quotas, then the
  /// deadline-feasibility model (possibly degrading the job's batch in
  /// place).  False = reject, with the reason written to *error.
  [[nodiscard]] bool admit_locked(detail::Job& job, ErrorInfo* error)
      HTS_REQUIRES(mutex_);
  /// A queued job may run now: cancelled/expired jobs always (they retire
  /// cheaply); retried jobs only once their backoff window has passed.
  [[nodiscard]] bool eligible_locked(const detail::Job& job) const
      HTS_REQUIRES(mutex_);
  /// Pops the scheduling-order minimum among *eligible* ready jobs
  /// (nullptr when none is eligible yet); updates the client round-robin
  /// stamp and the job's queue-wait accounting.
  [[nodiscard]] std::shared_ptr<detail::Job> pop_best_locked()
      HTS_REQUIRES(mutex_);
  [[nodiscard]] bool schedules_before_locked(const detail::Job& a,
                                             const detail::Job& b) const
      HTS_REQUIRES(mutex_);
  /// Runs one slice (one GD round); returns kRunning to continue (re-queue)
  /// or the terminal status.
  [[nodiscard]] JobStatus run_slice(detail::Job& job) HTS_EXCLUDES(mutex_);
  void finalize(const std::shared_ptr<detail::Job>& job, JobStatus status)
      HTS_EXCLUDES(mutex_);

  ServerConfig config_;
  std::size_t n_workers_ = 0;
  PlanCache cache_;
  /// Armed from ServerConfig::fault_spec / HTS_FAULT_SPEC before any worker
  /// starts; immutable afterwards (its counters are atomic), so workers use
  /// it lock-free.
  util::FaultInjector injector_;

  // Lock order: mutex_ -> detail::Job::mutex, never the reverse (see
  // util/mutex.hpp for the repo-wide contract).
  mutable util::Mutex mutex_;
  util::CondVar work_cv_;
  std::vector<std::shared_ptr<detail::Job>> ready_ HTS_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<detail::Job>> running_ HTS_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, ClientState> clients_
      HTS_GUARDED_BY(mutex_);
  std::uint64_t pop_seq_ HTS_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_id_ HTS_GUARDED_BY(mutex_) = 1;
  bool shutdown_ HTS_GUARDED_BY(mutex_) = false;
  ServerStats stats_ HTS_GUARDED_BY(mutex_);
  telemetry::Histogram slice_ms_ HTS_GUARDED_BY(mutex_);
  /// EWMA of finished jobs' exec_ms — the admission model's cost estimate.
  double avg_job_cost_ms_ HTS_GUARDED_BY(mutex_) = 0.0;

  /// The fleet: one thread per worker_loop, started by the constructor once
  /// the injector is armed and joined exactly once, by the first shutdown()
  /// (join_once_ makes concurrent callers wait for that join).
  std::vector<std::thread> workers_;
  std::once_flag join_once_;
};

}  // namespace hts::service
