#pragma once

// Request, status, and accounting types of the in-process sampling service.
//
// A SamplingRequest is one client's job: a formula, a seed, a deadline, a
// unique-solution target, memory caps, and engine tuning overrides.  The
// service compiles the formula once (or pulls the compiled plan from the
// cache), time-slices GD rounds across the worker fleet, and streams unique
// solutions back through the request's SolutionStream as they are
// harvested.  JobStats is the per-request bill: what was produced, what it
// cost, and how long the request waited for a worker.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "cnf/formula.hpp"
#include "core/gradient_sampler.hpp"
#include "tensor/tensor.hpp"

namespace hts::service {

/// Named fault-injection seams of the service layer (see
/// util/fault_injector.hpp).  Each is evaluated on the corresponding path
/// and doubles as the error-attribution site recorded in ErrorInfo when a
/// real (non-injected) exception escapes that phase.
namespace fault_sites {
inline constexpr const char* kCompile = "compile";          // plan-cache compile
inline constexpr const char* kEngineAlloc = "engine_alloc"; // engine/bank/harvester build
inline constexpr const char* kHarvest = "harvest";          // post-collect checkpoint
inline constexpr const char* kStreamPush = "stream_push";   // solution delivery
inline constexpr const char* kSlice = "slice";              // worker slice body
}  // namespace fault_sites

/// Engine tuning defaults for service jobs.  Identical to the stand-alone
/// GradientSampler defaults except the kernel policy: a service worker runs
/// many jobs concurrently, so each job keeps its kernels and its harvest on
/// its own worker thread (kSerial) instead of fanning every tile out to the
/// global pool — concurrent requests are the parallelism axis, and stacking
/// data-parallel dispatch on top of a loaded fleet only adds queue
/// contention.  Override config.policy per request to compose deliberately.
[[nodiscard]] inline sampler::GradientConfig default_job_config() {
  sampler::GradientConfig config;
  config.policy = tensor::Policy::kSerial;
  return config;
}

struct SamplingRequest {
  /// The formula to sample (copied into the job; the caller's object need
  /// not outlive the request).
  cnf::Formula formula;

  /// Fairness key: the scheduler round-robins across clients when deadlines
  /// tie, so one client queueing many jobs cannot crowd out another.
  std::uint64_t client_id = 0;

  /// Base seed of the job's RNG streams.  Round r draws from
  /// util::Rng::stream(seed, r), so a job's solution stream is a pure
  /// function of (formula, seed, config) — independent of fleet size,
  /// scheduling order, and whatever else the server is running.
  std::uint64_t seed = 0x5eed;

  /// Wall-clock budget in milliseconds, counted from submission (queue wait
  /// included — that is what "deadline-aware" schedules against).  0 means
  /// no deadline.  An expired job finalizes with its partial results.
  double deadline_ms = 0.0;

  /// Finish successfully once this many unique solutions are banked.
  /// 0 means "run until the deadline or a cap" (requires deadline_ms,
  /// max_uniques, max_bank_bytes, or an eventual cancel() to terminate).
  std::size_t target_uniques = 1000;

  /// Hard per-request cap on banked uniques (0 = none).  The job finalizes
  /// as kCapped at the first harvest boundary at or past the cap, bounding
  /// the client's bank memory at roughly max_uniques keys + one batch.
  std::size_t max_uniques = 0;

  /// Hard cap on the heap bytes the unique bank has allocated (0 = none):
  /// sampler::UniqueBank::size_bytes(), its key table's slot array and key
  /// arena, real bytes rather than an estimate.  Same kCapped semantics as
  /// above.
  std::size_t max_bank_bytes = 0;

  /// Bound on the solution stream's buffered assignments (0 = unbounded).
  /// A full stream applies backpressure: the job's worker blocks at the
  /// next delivery until the consumer drains (or the job aborts), so a slow
  /// consumer throttles exactly its own job.
  std::size_t stream_capacity = 0;

  /// Deliver projected assignments through the stream (on by default).
  /// Count-only clients turn this off and read JobStats instead; the bank
  /// still deduplicates, but no assignment is materialized or buffered.
  bool deliver_solutions = true;

  /// Callback delivery: when set, each new unique assignment is handed to
  /// this callable synchronously from the worker thread instead of being
  /// buffered in the stream (stream_capacity is then ignored).  Must be
  /// thread-safe across jobs sharing the callable and fast — the round is
  /// stalled while it runs.
  std::function<void(const cnf::Assignment&)> on_solution;

  /// Per-request sampling (projection) set over 0-based variables.  Empty
  /// defers to the formula's own 'c ind' declaration (if any).  Scopes the
  /// amplifier's flip support and — unless config.projected_dedup is turned
  /// off — keys unique solutions on the projection, so the stream delivers
  /// exactly one full witness per distinct projection and JobStats::n_unique
  /// counts projections.  The job takes a normalized copy (sorted, deduped,
  /// out-of-range entries dropped).  Intentionally not part of the
  /// plan-cache key (it never changes the compiled circuit).
  std::vector<cnf::Var> sampling_set;

  /// Engine/loop tuning.  n_workers and max_rounds are ignored (the service
  /// owns scheduling); cone_only/optimize_tape are the compile options in
  /// the plan-cache key, so two requests differing in either compile
  /// separate plans, while every other knob shares one.  config.amplify is
  /// the per-job flip-amplification knob (see sampler::AmplifyConfig) —
  /// amplified uniques stream like any other and are additionally billed in
  /// JobStats.  config.projected_dedup / config.diversity_restart /
  /// config.lit_weights are the per-job projected-sampling knobs (see
  /// GdLoopConfig).
  sampler::GradientConfig config = default_job_config();
};

enum class JobStatus : std::uint8_t {
  kQueued,           // submitted, waiting for a worker slice
  kRunning,          // a worker holds the job (between slices it re-queues)
  kCompleted,        // reached target_uniques
  kDeadlineExpired,  // budget ran out; partial results delivered
  kCancelled,        // client cancel() or server shutdown
  kCapped,           // hit max_uniques / max_bank_bytes
  kUnsat,            // the transformation proved the formula unsatisfiable
  kFailed,           // an error escaped the job (see JobStats::error); the
                     // job is contained — stream closed, fleet unaffected
  kRejected,         // admission control refused it at submit(), before any
                     // compile (see JobStats::error for the reason)
};

[[nodiscard]] constexpr bool job_status_terminal(JobStatus status) {
  return status != JobStatus::kQueued && status != JobStatus::kRunning;
}

[[nodiscard]] constexpr const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kDeadlineExpired: return "deadline";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kCapped: return "capped";
    case JobStatus::kUnsat: return "unsat";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRejected: return "rejected";
  }
  return "?";
}

/// What went wrong, in decreasing order of "the request itself was the
/// problem".  kTransient and kResource are the retryable categories: the
/// scheduler re-enqueues those with exponential backoff up to
/// ServerConfig::max_retries before finalizing kFailed.
enum class ErrorCategory : std::uint8_t {
  kNone,       // no error (the default on every non-failed job)
  kAdmission,  // rejected at submit(): malformed config, deadline or quota
  kCompile,    // the formula's transform/compile threw
  kResource,   // allocation failure (std::bad_alloc); retryable
  kTransient,  // momentary failure, expected to pass; retryable
  kExecution,  // an exception escaped the slice (engine, harvest, delivery)
  kInternal,   // unclassifiable (non-std::exception) — contained, never retried
};

[[nodiscard]] constexpr const char* error_category_name(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kNone: return "none";
    case ErrorCategory::kAdmission: return "admission";
    case ErrorCategory::kCompile: return "compile";
    case ErrorCategory::kResource: return "resource";
    case ErrorCategory::kTransient: return "transient";
    case ErrorCategory::kExecution: return "execution";
    case ErrorCategory::kInternal: return "internal";
  }
  return "?";
}

/// The error that failed (or last troubled) a job: what kind, at which
/// seam, and the exception text.  `site` is one of the fault_sites names
/// for slice-time errors, or "submit" for admission rejections.
struct ErrorInfo {
  ErrorCategory category = ErrorCategory::kNone;
  std::string site;
  std::string message;

  [[nodiscard]] bool ok() const { return category == ErrorCategory::kNone; }
};

/// Per-request accounting, final once the job is terminal (wait() first).
/// Snapshots taken earlier are consistent but mid-flight.  The loop
/// counters are the job's session's (see sampler::LoopCounters), except
/// `rounds`, which counts claimed rounds: a round a retry re-runs counts
/// once.  harvest_ms and amplify_ms are already included in exec_ms, split
/// out from the same clock.
struct JobStats : sampler::LoopCounters {
  std::size_t n_unique = 0;        // banked unique solutions
  std::size_t delivered = 0;       // assignments handed to the sink
  double queue_wait_ms = 0.0;      // total time spent waiting for a worker
  double exec_ms = 0.0;            // total time holding a worker
  /// Build cost of this job's plan — nonzero only on the one request that
  /// actually compiled it (the entry's recorded one-time cost).  Requests
  /// that waited on another job's in-flight compile bill cache_wait_ms
  /// instead, so fleet-wide sums of compile_ms equal real compile work.
  double compile_ms = 0.0;
  /// Time blocked on the plan cache without compiling: an in-flight build
  /// by another request, or the (cheap) fingerprint + lookup on a hit.
  double cache_wait_ms = 0.0;
  double wall_ms = 0.0;            // submission -> terminal
  bool plan_cache_hit = false;     // plan reused (possibly after waiting on
                                   // another request's in-flight compile)
  std::size_t bank_bytes = 0;      // heap bytes the bank had allocated at
                                   // the end (UniqueBank::size_bytes())
  /// Set when the job failed (kFailed), was rejected (kRejected), or
  /// survived transient errors on the way to another terminal status (the
  /// last such error is kept, with `retries` saying how many re-enqueues it
  /// cost).  ok() on every untroubled job.
  ErrorInfo error;
  /// Transient-retry re-enqueues consumed (bounded by ServerConfig::max_retries).
  std::uint32_t retries = 0;
  /// Admission accepted the job only after shrinking its GD batch
  /// (config.batch, by at most AdmissionConfig::max_degrade); the stream is
  /// then a pure function of the *degraded* config, not the submitted one.
  bool degraded = false;
};

}  // namespace hts::service
