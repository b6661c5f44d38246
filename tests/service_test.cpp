// Tests for the sampling service: job lifecycle end to end, determinism of
// each job's solution stream under any fleet size, plan-cache hit/eviction/
// in-flight-dedup behaviour, deadline and cancellation correctness,
// per-request memory caps, stream backpressure and callback delivery, and
// the no-head-of-line-blocking scheduling property.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/families.hpp"
#include "cnf/dimacs.hpp"
#include "service/plan_cache.hpp"
#include "service/server.hpp"

namespace hts::service {
namespace {

/// (x1|x2) & (x3|x4) & (~x1|~x3) over 7 vars: 5 constrained models times
/// 2^3 free variables = 40 solutions — every small target is reachable,
/// and an absurd target never is (endless-job fixture).
cnf::Formula formula_a() {
  return cnf::parse_dimacs_string("p cnf 7 3\n1 2 0\n3 4 0\n-1 -3 0\n");
}

/// A structurally different instance: (x5 xor x6) & (x1|x2|x3) & (~x2|x4)
/// over 8 vars; comfortably satisfiable.
cnf::Formula formula_b() {
  return cnf::parse_dimacs_string(
      "p cnf 8 4\n5 6 0\n-5 -6 0\n1 2 3 0\n-2 4 0\n");
}

/// Contains an empty clause, which the transformation's flush path
/// simplifies to constant false — the one shape it *proves* UNSAT.  (Merely
/// contradictory formulas, e.g. the 2-var XOR contradiction, transform into
/// circuits whose constraints are unsatisfiable but are not detected; a
/// service job on one runs to its deadline/cap like any other dry well.)
cnf::Formula unsat_formula() {
  return cnf::parse_dimacs_string("p cnf 2 3\n1 2 0\n0\n-1 0\n");
}

/// A request the test server can finish quickly.
SamplingRequest small_request(cnf::Formula formula, std::size_t target = 20,
                              std::uint64_t seed = 123) {
  SamplingRequest request;
  request.formula = std::move(formula);
  request.seed = seed;
  request.target_uniques = target;
  request.config.batch = 128;
  request.config.iterations = 3;
  return request;
}

/// A request that can never complete (target far above the model count) —
/// the deadline / cancel / cap fixtures build on it.
SamplingRequest endless_request(std::uint64_t seed = 7) {
  SamplingRequest request = small_request(formula_a(), 1000000, seed);
  return request;
}

std::vector<cnf::Assignment> collect_stream(const JobHandle& handle) {
  std::vector<cnf::Assignment> all;
  cnf::Assignment assignment;
  while (handle.stream().next(assignment)) all.push_back(assignment);
  return all;
}

void expect_all_valid(const cnf::Formula& formula,
                      const std::vector<cnf::Assignment>& solutions) {
  for (const cnf::Assignment& solution : solutions) {
    ASSERT_EQ(solution.size(), formula.n_vars());
    EXPECT_TRUE(formula.satisfied_by(solution));
  }
}

void expect_all_distinct(const std::vector<cnf::Assignment>& solutions) {
  std::set<cnf::Assignment> unique(solutions.begin(), solutions.end());
  EXPECT_EQ(unique.size(), solutions.size());
}

// --- lifecycle ---------------------------------------------------------------

TEST(ServiceServer, SingleJobCompletesAndStreamsValidUniqueSolutions) {
  Server server({.n_workers = 2});
  JobHandle handle = server.submit(small_request(formula_a(), 25));
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.wait(), JobStatus::kCompleted);

  const std::vector<cnf::Assignment> solutions = collect_stream(handle);
  const JobStats stats = handle.stats();
  EXPECT_GE(stats.n_unique, 25u);
  EXPECT_EQ(stats.delivered, solutions.size());
  EXPECT_EQ(stats.n_unique, solutions.size());
  expect_all_valid(formula_a(), solutions);
  expect_all_distinct(solutions);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_GE(stats.gd_iterations, 1u);
  EXPECT_GT(stats.rows_validated, 0u);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.bank_bytes, 0u);
  EXPECT_FALSE(stats.plan_cache_hit);  // cold cache

  const ServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.submitted, 1u);
  EXPECT_EQ(server_stats.completed, 1u);
}

TEST(ServiceServer, UnsatFormulaFinishesAsUnsat) {
  Server server({.n_workers = 1});
  JobHandle handle = server.submit(small_request(unsat_formula(), 5));
  EXPECT_EQ(handle.wait(), JobStatus::kUnsat);
  EXPECT_EQ(handle.stats().n_unique, 0u);
  EXPECT_EQ(collect_stream(handle).size(), 0u);
}

TEST(ServiceServer, SubmitAfterShutdownReturnsCancelledHandle) {
  Server server({.n_workers = 1});
  server.shutdown();
  JobHandle handle = server.submit(small_request(formula_a()));
  EXPECT_EQ(handle.wait(), JobStatus::kCancelled);
}

TEST(ServiceServer, ShutdownCancelsOutstandingJobs) {
  Server server({.n_workers = 1});
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(server.submit(endless_request(static_cast<std::uint64_t>(i))));
  }
  // Let at least one job start before tearing the fleet down.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.shutdown();
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait(), JobStatus::kCancelled);
    EXPECT_TRUE(handle.stream().closed());
  }
}

TEST(ServiceServer, ConcurrentShutdownsBothWaitForTheFleet) {
  // Two threads call shutdown() at once while a job runs.  Whichever of
  // them joins the workers, both return only after the fleet has stopped,
  // so the job is terminal by then; a later submit() is cancelled within
  // the call, and the destructor's own shutdown() finds nothing left to do.
  auto server = std::make_unique<Server>(ServerConfig{.n_workers = 2});
  const JobHandle job = server->submit(endless_request());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&] {
      server->shutdown();
      EXPECT_TRUE(job_status_terminal(job.status()));
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(job.status(), JobStatus::kCancelled);
  const JobHandle late = server->submit(small_request(formula_a()));
  EXPECT_EQ(late.status(), JobStatus::kCancelled);
  server.reset();
  EXPECT_TRUE(late.stream().closed());
}

// --- determinism -------------------------------------------------------------

TEST(ServiceServer, SolutionStreamIsDeterministicAcrossFleetSizes) {
  struct Run {
    std::vector<cnf::Assignment> solutions;
    JobStats stats;
  };
  auto run_once = [](std::size_t n_workers, bool with_decoys) {
    Server server({.n_workers = n_workers});
    std::vector<JobHandle> decoys;
    if (with_decoys) {
      for (int i = 0; i < 6; ++i) {
        decoys.push_back(server.submit(
            small_request(formula_b(), 15, 1000 + static_cast<std::uint64_t>(i))));
      }
    }
    JobHandle handle = server.submit(small_request(formula_a(), 30, 99));
    EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
    Run run{collect_stream(handle), handle.stats()};
    for (const JobHandle& decoy : decoys) decoy.wait();
    return run;
  };

  const Run solo = run_once(1, false);
  const Run fleet = run_once(4, true);
  // Not just the same set: the same assignments in the same order.
  EXPECT_EQ(solo.solutions, fleet.solutions);
  EXPECT_GE(solo.solutions.size(), 30u);
  // The work behind the stream is the same too: every loop counter except
  // the wall-clock timers.
  const sampler::LoopCounters& a = solo.stats;
  const sampler::LoopCounters& b = fleet.stats;
  EXPECT_GT(a.rounds, 0u);
  EXPECT_EQ(a.engine_memory_bytes, b.engine_memory_bytes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.restarted_rows, b.restarted_rows);
  EXPECT_EQ(a.plateau_restarted_rows, b.plateau_restarted_rows);
  EXPECT_EQ(a.gd_iterations, b.gd_iterations);
  EXPECT_EQ(a.rows_validated, b.rows_validated);
  EXPECT_EQ(a.amplified_candidates, b.amplified_candidates);
  EXPECT_EQ(a.amplified_uniques, b.amplified_uniques);
  EXPECT_EQ(a.diversity_restarted_rows, b.diversity_restarted_rows);
  EXPECT_EQ(a.weighted_inputs, b.weighted_inputs);
}

// --- multi-client stress -----------------------------------------------------

TEST(ServiceServer, ManyOverlappingMixedClientsAllFinishCorrectly) {
  const benchgen::Instance or_instance =
      benchgen::make_instance("or-50-10-7-UC-10");
  Server server({.n_workers = 4});

  struct Submitted {
    JobHandle handle;
    const cnf::Formula* formula;
    JobStatus expect;
  };
  std::vector<Submitted> jobs;
  const cnf::Formula a = formula_a();
  const cnf::Formula b = formula_b();
  const cnf::Formula unsat = unsat_formula();

  for (std::uint64_t i = 0; i < 4; ++i) {
    SamplingRequest request = small_request(a, 20, 10 + i);
    request.client_id = i;
    jobs.push_back({server.submit(std::move(request)), &a,
                    JobStatus::kCompleted});
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    SamplingRequest request = small_request(b, 15, 20 + i);
    request.client_id = i;
    jobs.push_back({server.submit(std::move(request)), &b,
                    JobStatus::kCompleted});
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    SamplingRequest request;
    request.formula = or_instance.formula;
    request.seed = 30 + i;
    request.target_uniques = 25;
    request.config.batch = 512;
    request.client_id = 4 + i;
    jobs.push_back({server.submit(std::move(request)), &or_instance.formula,
                    JobStatus::kCompleted});
  }
  {
    SamplingRequest request = small_request(unsat, 5, 40);
    request.client_id = 6;
    jobs.push_back({server.submit(std::move(request)), &unsat,
                    JobStatus::kUnsat});
  }
  {
    SamplingRequest request = endless_request(41);
    request.client_id = 7;
    request.max_uniques = 30;
    request.target_uniques = 0;
    jobs.push_back({server.submit(std::move(request)), &a, JobStatus::kCapped});
  }

  for (Submitted& job : jobs) {
    EXPECT_EQ(job.handle.wait(), job.expect);
    const std::vector<cnf::Assignment> solutions = collect_stream(job.handle);
    expect_all_valid(*job.formula, solutions);
    expect_all_distinct(solutions);
    const JobStats stats = job.handle.stats();
    EXPECT_EQ(stats.delivered, solutions.size());
    EXPECT_EQ(stats.n_unique, solutions.size());
    if (job.expect == JobStatus::kCompleted) {
      EXPECT_GE(stats.n_unique, 15u);
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.unsat, 1u);
  EXPECT_EQ(stats.capped, 1u);
  // 12 jobs over 4 distinct formula/options keys -> 4 compiles total.
  const PlanCache::Stats cache = server.plan_cache_stats();
  EXPECT_EQ(cache.misses, 4u);
  EXPECT_EQ(cache.hits, jobs.size() - 4u);
}

// --- plan cache --------------------------------------------------------------

TEST(PlanCache, FingerprintSeparatesFormulasAndOptions) {
  const prob::CompiledCircuit::Options base;
  const PlanKey key_a = plan_fingerprint(formula_a(), base);
  EXPECT_EQ(key_a, plan_fingerprint(formula_a(), base));  // stable
  EXPECT_FALSE(key_a == plan_fingerprint(formula_b(), base));

  prob::CompiledCircuit::Options cone = base;
  cone.cone_only = true;
  EXPECT_FALSE(key_a == plan_fingerprint(formula_a(), cone));

  prob::CompiledCircuit::Options raw = base;
  raw.optimize = false;
  const PlanKey key_raw = plan_fingerprint(formula_a(), raw);
  EXPECT_FALSE(key_a == key_raw);
  cone.optimize = false;
  EXPECT_FALSE(key_raw == plan_fingerprint(formula_a(), cone));

  // Clause order is structural: permuted formulas compile differently.
  cnf::Formula permuted = cnf::parse_dimacs_string(
      "p cnf 7 3\n3 4 0\n1 2 0\n-1 -3 0\n");
  EXPECT_FALSE(key_a == plan_fingerprint(permuted, base));
}

TEST(PlanCache, RequestsDifferingOnlyInNonCompileKnobsCompileOnce) {
  Server server(ServerConfig{.n_workers = 1});
  std::vector<JobHandle> handles;
  handles.push_back(server.submit(small_request(formula_a(), 10, 1)));
  {
    SamplingRequest request = small_request(formula_a(), 10, 2);
    request.config.learning_rate = 5.0f;
    handles.push_back(server.submit(std::move(request)));
  }
  {
    SamplingRequest request = small_request(formula_a(), 10, 3);
    request.config.amplify.enabled = true;
    handles.push_back(server.submit(std::move(request)));
  }
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
  }
  EXPECT_FALSE(handles[0].stats().plan_cache_hit);
  EXPECT_TRUE(handles[1].stats().plan_cache_hit);
  EXPECT_TRUE(handles[2].stats().plan_cache_hit);
  const PlanCache::Stats cache = server.plan_cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 2u);

  // A compile option does split the key.
  SamplingRequest raw = small_request(formula_a(), 10, 1);
  raw.config.optimize_tape = false;
  EXPECT_EQ(server.submit(std::move(raw)).wait(), JobStatus::kCompleted);
  EXPECT_EQ(server.plan_cache_stats().misses, 2u);
}

TEST(PlanCache, SecondRequestHitsAndSharesThePlan) {
  PlanCache cache(4);
  bool hit = true;
  const auto first = cache.get_or_compile(formula_a(), {}, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->compiled.has_value());
  EXPECT_TRUE(first->eval_plan.has_value());
  EXPECT_GE(first->compile_ms, 0.0);

  const auto second = cache.get_or_compile(formula_a(), {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // shared, not recompiled
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  PlanCache cache(2);
  (void)cache.get_or_compile(formula_a(), {}, nullptr);
  (void)cache.get_or_compile(formula_b(), {}, nullptr);
  // Touch A so B is the LRU victim when a third key arrives.
  bool hit = false;
  (void)cache.get_or_compile(formula_a(), {}, &hit);
  EXPECT_TRUE(hit);
  (void)cache.get_or_compile(unsat_formula(), {}, nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  (void)cache.get_or_compile(formula_a(), {}, &hit);
  EXPECT_TRUE(hit);  // survived
  (void)cache.get_or_compile(formula_b(), {}, &hit);
  EXPECT_FALSE(hit);  // was evicted, recompiled
}

TEST(PlanCache, ConcurrentMissesOnOneKeyCompileOnce) {
  PlanCache cache(4);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const CompiledPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  const cnf::Formula formula = formula_a();
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { plans[t] = cache.get_or_compile(formula, {}, nullptr); });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[0].get(), plans[t].get());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, kThreads - 1);
}

TEST(PlanCache, UnsatPlanCarriesNoEngineArtifacts) {
  PlanCache cache(2);
  const auto plan = cache.get_or_compile(unsat_formula(), {}, nullptr);
  EXPECT_TRUE(plan->transformed.proven_unsat);
  EXPECT_FALSE(plan->compiled.has_value());
  EXPECT_FALSE(plan->eval_plan.has_value());
}

// --- deadlines, cancellation, caps -------------------------------------------

TEST(ServiceServer, DeadlineExpiryReturnsPartialResultsCleanly) {
  Server server({.n_workers = 1});
  SamplingRequest request = endless_request();
  request.deadline_ms = 200.0;
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.wait(), JobStatus::kDeadlineExpired);
  const JobStats stats = handle.stats();
  // Partial results: the formula has only 40 models, so the job banked
  // them all long before the deadline and kept (unsuccessfully) looking.
  EXPECT_GT(stats.n_unique, 0u);
  EXPECT_EQ(stats.delivered, stats.n_unique);
  // The budget is overshot by at most slice granularity, not by rounds of
  // extra work; generous bound to stay robust on loaded CI machines.
  EXPECT_LT(stats.wall_ms, 5000.0);
  const std::vector<cnf::Assignment> solutions = collect_stream(handle);
  expect_all_valid(formula_a(), solutions);
  EXPECT_EQ(solutions.size(), stats.n_unique);
}

TEST(ServiceServer, DeadlineCutsAnAmplifiedWideJobMidRound) {
  // One round of an amplified batch-65536 job harvests thousands of bases
  // and validates millions of flip mutants.  The deadline must cut in at
  // harvest blocks and amplifier bases, through the job's own stop token,
  // whether or not an idle worker is awake.  No n_unique > 0 check: 50 ms
  // can pass before the first harvest.
  const benchgen::Instance instance =
      benchgen::make_instance("or-100-20-8-UC-10");
  for (const std::size_t n_workers : {std::size_t{1}, std::size_t{2}}) {
    Server server({.n_workers = n_workers});
    // Warm the plan so the deadline is spent sampling, not compiling.
    SamplingRequest warm;
    warm.formula = instance.formula;
    warm.target_uniques = 1;
    warm.config.batch = 64;
    ASSERT_EQ(server.submit(std::move(warm)).wait(), JobStatus::kCompleted);

    SamplingRequest request;
    request.formula = instance.formula;
    request.seed = 5;
    request.target_uniques = 0;  // the deadline is the only stop
    request.deadline_ms = 50.0;
    request.deliver_solutions = false;
    request.config.batch = 65536;
    request.config.amplify.enabled = true;
    const JobHandle handle = server.submit(std::move(request));
    EXPECT_EQ(handle.wait(), JobStatus::kDeadlineExpired)
        << n_workers << " workers";
    EXPECT_LT(handle.stats().wall_ms, 5000.0) << n_workers << " workers";
  }
}

TEST(ServiceServer, CancelStopsARunningJobPromptly) {
  Server server({.n_workers = 1});
  const JobHandle handle = server.submit(endless_request());
  // Let it start producing, then cancel.
  while (handle.stats().rounds == 0 &&
         !job_status_terminal(handle.status())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.cancel();
  EXPECT_EQ(handle.wait(), JobStatus::kCancelled);
  EXPECT_TRUE(handle.stream().closed());
  // Partial results survive cancellation.
  EXPECT_EQ(collect_stream(handle).size(), handle.stats().delivered);
}

TEST(ServiceServer, CancelRetiresQueuedJobsWithoutRunningThem) {
  Server server({.n_workers = 1});
  const JobHandle runner = server.submit(endless_request(1));
  const JobHandle queued = server.submit(endless_request(2));
  queued.cancel();
  EXPECT_EQ(queued.wait(), JobStatus::kCancelled);
  EXPECT_EQ(queued.stats().rounds, 0u);
  EXPECT_EQ(queued.stats().gd_iterations, 0u);
  runner.cancel();
  EXPECT_EQ(runner.wait(), JobStatus::kCancelled);
}

TEST(ServiceServer, MaxUniquesCapBoundsTheBank) {
  Server server({.n_workers = 1});
  SamplingRequest request = endless_request();
  request.target_uniques = 0;  // run until a cap fires
  request.max_uniques = 10;
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.wait(), JobStatus::kCapped);
  const JobStats stats = handle.stats();
  EXPECT_GE(stats.n_unique, 10u);
  // Overshoot is bounded by one harvest of one batch.
  EXPECT_LE(stats.n_unique, 10u + 128u);
  EXPECT_GT(stats.bank_bytes, 0u);
}

TEST(ServiceServer, MaxBankBytesCapFires) {
  Server server({.n_workers = 1});
  SamplingRequest request = endless_request();
  request.target_uniques = 0;
  request.max_bank_bytes = 1;  // any banked unique trips it
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.wait(), JobStatus::kCapped);
  EXPECT_GE(handle.stats().bank_bytes, 1u);
}

// --- delivery modes ----------------------------------------------------------

TEST(ServiceServer, BoundedStreamBackpressureLosesNothing) {
  Server server({.n_workers = 2});
  SamplingRequest request = small_request(formula_a(), 30);
  request.stream_capacity = 2;  // far below the target: push must block
  const JobHandle handle = server.submit(std::move(request));

  // Consume deliberately slowly; the producer must wait, not drop.
  std::vector<cnf::Assignment> solutions;
  cnf::Assignment assignment;
  while (handle.stream().next(assignment)) {
    solutions.push_back(assignment);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
  const JobStats stats = handle.stats();
  EXPECT_EQ(solutions.size(), stats.delivered);
  EXPECT_EQ(solutions.size(), stats.n_unique);
  expect_all_valid(formula_a(), solutions);
  expect_all_distinct(solutions);
}

TEST(ServiceServer, CallbackDeliveryBypassesTheBuffer) {
  Server server({.n_workers = 1});
  std::mutex mutex;
  std::vector<cnf::Assignment> delivered;
  SamplingRequest request = small_request(formula_a(), 20);
  request.on_solution = [&](const cnf::Assignment& assignment) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(assignment);
  };
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(delivered.size(), handle.stats().delivered);
  EXPECT_GE(delivered.size(), 20u);
  EXPECT_EQ(handle.stream().buffered(), 0u);
  expect_all_valid(formula_a(), delivered);
}

TEST(ServiceServer, CountOnlyJobsDeliverNothingButStillCount) {
  Server server({.n_workers = 1});
  SamplingRequest request = small_request(formula_a(), 20);
  request.deliver_solutions = false;
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
  EXPECT_GE(handle.stats().n_unique, 20u);
  EXPECT_EQ(handle.stats().delivered, 0u);
  EXPECT_EQ(collect_stream(handle).size(), 0u);
}

// --- scheduling fairness -----------------------------------------------------

TEST(ServiceServer, ShortDeadlineJobIsNotBlockedBehindALongJob) {
  // One worker makes head-of-line blocking maximally visible: the long job
  // is mid-flight when the short job arrives, and only time-sliced EDF
  // scheduling lets the short one through.
  Server server({.n_workers = 1});
  SamplingRequest long_request = endless_request();
  long_request.config.batch = 1024;
  const JobHandle long_handle = server.submit(std::move(long_request));
  while (long_handle.stats().rounds == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  SamplingRequest short_request = small_request(formula_b(), 15, 5);
  short_request.deadline_ms = 30000.0;  // EDF priority over the batch job
  const JobHandle short_handle = server.submit(std::move(short_request));
  EXPECT_EQ(short_handle.wait(), JobStatus::kCompleted);
  // The long job is still going when the short one finishes.
  EXPECT_FALSE(job_status_terminal(long_handle.status()));
  long_handle.cancel();
  EXPECT_EQ(long_handle.wait(), JobStatus::kCancelled);
}

// --- admission control -------------------------------------------------------

TEST(ServiceAdmission, InfeasibleDeadlineIsRejectedAtSubmitWithoutCompiling) {
  ServerConfig config{.n_workers = 1};
  config.admission.enabled = true;
  config.admission.initial_job_cost_ms = 50.0;
  Server server(config);
  // Deadline far below the cost prior: infeasible before any compile.
  SamplingRequest request = small_request(formula_a());
  request.deadline_ms = 1.0;
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.status(), JobStatus::kRejected);  // terminal within submit()
  EXPECT_EQ(handle.wait(), JobStatus::kRejected);
  const ErrorInfo error = handle.error();
  EXPECT_EQ(error.category, ErrorCategory::kAdmission);
  EXPECT_EQ(error.site, "submit");
  EXPECT_NE(error.message.find("deadline infeasible"), std::string::npos);
  // No compile happened and the stream ends immediately.
  EXPECT_EQ(server.plan_cache_size(), 0u);
  EXPECT_EQ(handle.stats().compile_ms, 0.0);
  EXPECT_EQ(collect_stream(handle).size(), 0u);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ServiceAdmission, ZeroBatchIsRejectedAtSubmitAndSparesItsNeighbor) {
  // Each malformed config is rejected at submit, named in the message, and
  // leaves a well-formed neighbor untouched.
  auto spoiled = [](auto&& spoil) {
    SamplingRequest request = small_request(formula_a());
    spoil(request.config);
    return request;
  };
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const struct {
    SamplingRequest request;
    const char* field;
  } kMalformed[] = {
      {spoiled([](auto& c) { c.batch = 0; }), "batch"},
      {spoiled([](auto& c) { c.iterations = -1; }), "iterations"},
      {spoiled([](auto& c) { c.learning_rate = 0.0f; }), "learning_rate"},
      {spoiled([](auto& c) { c.learning_rate = kNan; }), "learning_rate"},
      {spoiled([](auto& c) { c.init_std = 0.0f; }), "init_std"},
      {spoiled([](auto& c) { c.init_std = -kInf; }), "init_std"},
      {spoiled([](auto& c) { c.lit_weights = {{0, false, kInf}}; }),
       "lit_weights"},
      // formula_a() has 7 variables, 0..6.
      {spoiled([](auto& c) { c.lit_weights = {{7, false, 1.0f}}; }),
       "lit_weights"}};
  for (const auto& malformed : kMalformed) {
    Server server({.n_workers = 2});
    const JobHandle rejected = server.submit(malformed.request);
    const JobHandle neighbor = server.submit(small_request(formula_b(), 10));
    EXPECT_EQ(rejected.status(), JobStatus::kRejected)  // terminal within submit()
        << malformed.field;
    EXPECT_EQ(rejected.error().category, ErrorCategory::kAdmission)
        << malformed.field;
    EXPECT_NE(rejected.error().message.find(malformed.field), std::string::npos)
        << rejected.error().message;
    EXPECT_EQ(rejected.stats().compile_ms, 0.0) << malformed.field;
    EXPECT_EQ(neighbor.wait(), JobStatus::kCompleted) << malformed.field;
    EXPECT_EQ(server.stats().rejected, 1u) << malformed.field;
  }
}

TEST(ServiceAdmission, FeasibleDeadlineIsAcceptedAndServed) {
  ServerConfig config{.n_workers = 2};
  config.admission.enabled = true;
  config.admission.initial_job_cost_ms = 5.0;
  Server server(config);
  SamplingRequest request = small_request(formula_a(), 15);
  request.deadline_ms = 60000.0;
  const JobHandle handle = server.submit(std::move(request));
  EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
  EXPECT_TRUE(handle.error().ok());
  EXPECT_FALSE(handle.stats().degraded);
}

TEST(ServiceAdmission, DegradeModeShrinksTheBatchInsteadOfRejecting) {
  ServerConfig config{.n_workers = 1};
  config.admission.enabled = true;
  config.admission.initial_job_cost_ms = 50.0;
  config.admission.safety_factor = 1.0;
  config.admission.max_degrade = 64.0;
  Server server(config);
  // Infeasible as submitted (cost prior 50ms vs 10ms deadline), but a ~5x
  // batch shrink fits; admission accepts it degraded instead of rejecting.
  SamplingRequest request = small_request(formula_a(), 5);
  request.config.batch = 4096;
  request.deadline_ms = 10.0;
  const JobHandle handle = server.submit(std::move(request));
  const JobStatus status = handle.wait();
  EXPECT_NE(status, JobStatus::kRejected);
  EXPECT_TRUE(handle.stats().degraded);
  EXPECT_EQ(server.stats().degraded, 1u);
  EXPECT_TRUE(handle.error().ok());  // degraded is not an error
}

TEST(ServiceAdmission, PerClientJobQuotaRejectsTheOverflow) {
  ServerConfig config{.n_workers = 1};
  config.admission.max_client_jobs = 2;
  Server server(config);
  const JobHandle first = server.submit(endless_request(1));
  const JobHandle second = server.submit(endless_request(2));
  const JobHandle third = server.submit(endless_request(3));
  EXPECT_EQ(third.wait(), JobStatus::kRejected);
  EXPECT_EQ(third.error().category, ErrorCategory::kAdmission);
  EXPECT_NE(third.error().message.find("job quota"), std::string::npos);
  // Another client is unaffected by the first client's quota.
  SamplingRequest other = endless_request(4);
  other.client_id = 9;
  const JobHandle other_handle = server.submit(std::move(other));
  EXPECT_NE(other_handle.status(), JobStatus::kRejected);
  // Quota is released when a job finalizes: cancel one, resubmit.
  first.cancel();
  EXPECT_EQ(first.wait(), JobStatus::kCancelled);
  const JobHandle fourth = server.submit(endless_request(5));
  EXPECT_NE(fourth.status(), JobStatus::kRejected);
  server.shutdown();
}

TEST(ServiceAdmission, PerClientBankByteQuotaEnforcesReservations) {
  ServerConfig config{.n_workers = 1};
  config.admission.max_client_bank_bytes = 1 << 20;
  Server server(config);
  // Under a bank quota, an unbounded-bank request cannot be reserved.
  const JobHandle unbounded = server.submit(endless_request(1));
  EXPECT_EQ(unbounded.wait(), JobStatus::kRejected);
  EXPECT_NE(unbounded.error().message.find("max_bank_bytes"),
            std::string::npos);
  // Two half-quota reservations fit; a third does not.
  auto capped_request = [](std::uint64_t seed) {
    SamplingRequest request = endless_request(seed);
    request.max_bank_bytes = 1 << 19;
    return request;
  };
  const JobHandle a = server.submit(capped_request(2));
  const JobHandle b = server.submit(capped_request(3));
  EXPECT_NE(a.status(), JobStatus::kRejected);
  EXPECT_NE(b.status(), JobStatus::kRejected);
  const JobHandle c = server.submit(capped_request(4));
  EXPECT_EQ(c.wait(), JobStatus::kRejected);
  EXPECT_NE(c.error().message.find("bank-byte quota"), std::string::npos);
  server.shutdown();
}

TEST(ServiceAdmission, AcceptedStreamsAreIdenticalUnderRejectionChurn) {
  // An accepted job's stream is a pure function of (formula, seed, config);
  // admission rejecting other traffic around it must not perturb it.
  auto run_once = [](bool with_churn) {
    ServerConfig config{.n_workers = 2};
    config.admission.enabled = true;
    config.admission.initial_job_cost_ms = 50.0;
    Server server(config);
    SamplingRequest request = small_request(formula_a(), 20, 77);
    request.deadline_ms = 60000.0;
    const JobHandle handle = server.submit(std::move(request));
    std::vector<JobHandle> rejected;
    if (with_churn) {
      for (int i = 0; i < 16; ++i) {
        SamplingRequest doomed = small_request(formula_b(), 10, 100 + i);
        doomed.client_id = 5;
        doomed.deadline_ms = 0.5;  // infeasible against the 50ms prior
        rejected.push_back(server.submit(std::move(doomed)));
      }
    }
    EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
    for (const JobHandle& r : rejected) {
      EXPECT_EQ(r.wait(), JobStatus::kRejected);
    }
    return collect_stream(handle);
  };
  const std::vector<cnf::Assignment> calm = run_once(false);
  const std::vector<cnf::Assignment> churned = run_once(true);
  EXPECT_EQ(calm, churned);  // bit-identical, order included
}

// --- error containment -------------------------------------------------------

TEST(ServiceFaults, CompileFaultFailsTheJobWithSiteAttribution) {
  ServerConfig config{.n_workers = 2};
  config.fault_spec = "compile:at=0";
  Server server(config);
  const JobHandle doomed = server.submit(small_request(formula_a(), 10, 1));
  EXPECT_EQ(doomed.wait(), JobStatus::kFailed);
  const ErrorInfo error = doomed.error();
  EXPECT_EQ(error.category, ErrorCategory::kCompile);
  EXPECT_EQ(error.site, fault_sites::kCompile);
  EXPECT_NE(error.message.find("injected fault"), std::string::npos);
  EXPECT_EQ(collect_stream(doomed).size(), 0u);  // closed, empty, no hang
  // The fleet survived: the next job (same formula — the failed compile
  // left no poisoned cache entry) completes normally.
  const JobHandle next_job = server.submit(small_request(formula_a(), 10, 2));
  EXPECT_EQ(next_job.wait(), JobStatus::kCompleted);
  EXPECT_EQ(server.stats().failed, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(ServiceFaults, TransientFaultIsRetriedAndTheStreamIsBitIdentical) {
  auto run_once = [](const std::string& spec) {
    ServerConfig config{.n_workers = 1};
    config.fault_spec = spec;
    config.retry_backoff_ms = 1.0;
    Server server(config);
    const JobHandle handle = server.submit(small_request(formula_a(), 20, 9));
    EXPECT_EQ(handle.wait(), JobStatus::kCompleted);
    return std::make_pair(collect_stream(handle), handle.stats());
  };
  const auto [calm_stream, calm_stats] = run_once("none");
  // One transient at the slice seam: before any round ran, so the retried
  // trajectory replays from the start and delivery matches exactly.
  const auto [faulted_stream, faulted_stats] =
      run_once("slice:at=0:kind=transient");
  EXPECT_EQ(faulted_stats.retries, 1u);
  EXPECT_FALSE(faulted_stats.error.ok());  // last trouble is kept
  EXPECT_EQ(faulted_stats.error.category, ErrorCategory::kTransient);
  EXPECT_EQ(calm_stream, faulted_stream);
  EXPECT_EQ(calm_stats.n_unique, faulted_stats.n_unique);
}

TEST(ServiceFaults, BadAllocAtEngineBuildIsRetriedThenFailsWhenPersistent) {
  // Retryable category, but the fault fires on every attempt: retries are
  // exhausted and the job fails with the resource category.
  ServerConfig config{.n_workers = 1};
  config.fault_spec = "engine_alloc:every=1:kind=bad_alloc";
  config.max_retries = 2;
  config.retry_backoff_ms = 1.0;
  Server server(config);
  const JobHandle handle = server.submit(small_request(formula_a(), 10));
  EXPECT_EQ(handle.wait(), JobStatus::kFailed);
  const JobStats stats = handle.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.error.category, ErrorCategory::kResource);
  EXPECT_EQ(stats.error.site, fault_sites::kEngineAlloc);
  EXPECT_EQ(server.stats().retried, 2u);
}

TEST(ServiceFaults, ManyTransientRetriesStayBoundedAndComplete) {
  // 35 consecutive transient slice faults: past the 32-bit width of the
  // retry counter's doubling, so the backoff must hold at its cap (1024x
  // base) rather than shift out of range.  At a 0.01 ms base the capped
  // waits sum to about 0.27 s; uncapped they would outlast the deadline.
  for (const double backoff_ms : {0.0, 0.01}) {
    ServerConfig config{.n_workers = 1};
    config.fault_spec = "slice:every=1:max=35:kind=transient";
    config.max_retries = 40;
    config.retry_backoff_ms = backoff_ms;
    Server server(config);
    SamplingRequest request = small_request(formula_a(), 10);
    request.deadline_ms = 30000.0;
    const JobHandle handle = server.submit(std::move(request));
    EXPECT_EQ(handle.wait(), JobStatus::kCompleted) << backoff_ms;
    EXPECT_EQ(handle.stats().retries, 35u) << backoff_ms;
    EXPECT_EQ(server.stats().retried, 35u) << backoff_ms;
  }
}

TEST(ServiceFaults, BlockedNextWakesToEndOfStreamWhenTheJobFails) {
  ServerConfig config{.n_workers = 1};
  config.fault_spec = "slice:at=0";  // permanent fail before the first round
  Server server(config);
  SamplingRequest request = small_request(formula_a(), 10);
  std::atomic<bool> consumer_woke{false};
  const JobHandle handle = server.submit(std::move(request));
  // Consumer blocks in next() on another thread before the job fails.
  std::thread consumer([&] {
    cnf::Assignment assignment;
    const bool got = handle.stream().next(assignment);
    EXPECT_FALSE(got);  // woke to end-of-stream, not a value and not a hang
    consumer_woke.store(true);
  });
  EXPECT_EQ(handle.wait(), JobStatus::kFailed);
  consumer.join();
  EXPECT_TRUE(consumer_woke.load());
  EXPECT_EQ(handle.error().site, fault_sites::kSlice);
}

TEST(ServiceFaults, FaultedJobDoesNotDisturbItsNeighbors) {
  // Two jobs, distinct formulas (distinct compiles); a permanent fault at
  // the second compile hit kills exactly one, and the survivor's stream is
  // bit-identical to a fault-free run.
  auto run_survivor = [](const std::string& spec) {
    ServerConfig config{.n_workers = 1};  // shared worker: containment, not
    config.fault_spec = spec;             // isolation, keeps them apart
    Server server(config);
    const JobHandle survivor =
        server.submit(small_request(formula_a(), 20, 11));
    EXPECT_EQ(survivor.wait(), JobStatus::kCompleted);
    return collect_stream(survivor);
  };
  const std::vector<cnf::Assignment> calm = run_survivor("none");

  ServerConfig config{.n_workers = 1};
  config.fault_spec = "compile:at=1";
  Server server(config);
  const JobHandle survivor = server.submit(small_request(formula_a(), 20, 11));
  EXPECT_EQ(survivor.wait(), JobStatus::kCompleted);  // compile hit 0
  const JobHandle doomed = server.submit(small_request(formula_b(), 20, 12));
  EXPECT_EQ(doomed.wait(), JobStatus::kFailed);  // compile hit 1
  EXPECT_EQ(doomed.error().site, fault_sites::kCompile);
  EXPECT_EQ(collect_stream(survivor), calm);
}

}  // namespace
}  // namespace hts::service
