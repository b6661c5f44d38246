// Tests for the round-parallel GD subsystem: the sharded unique bank under
// concurrent insert storms, determinism of the n_workers == 1 legacy path,
// exactness of the global unique count when workers merge concurrently, the
// shared max_rounds budget, and the Fig. 3 per-iteration curve under merge.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/diff_sampler.hpp"
#include "core/gd_loop.hpp"
#include "core/gradient_sampler.hpp"
#include "core/unique_bank.hpp"
#include "cnf/dimacs.hpp"
#include "solver/brute.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/timer.hpp"

namespace hts::sampler {
namespace {

// --- ShardedUniqueBank ------------------------------------------------------

TEST(ShardedUniqueBank, DeduplicatesLikeSerialBank) {
  ShardedUniqueBank bank(130);
  std::vector<std::uint64_t> key(bank.n_words(), 0);
  EXPECT_TRUE(bank.insert(key));
  EXPECT_FALSE(bank.insert(key));
  key[1] = 1;
  EXPECT_TRUE(bank.insert(key));
  EXPECT_EQ(bank.size(), 2u);
}

TEST(ShardedUniqueBank, InsertBitsMatchesPackedInsert) {
  ShardedUniqueBank bank(70);
  std::vector<std::uint8_t> bits(70, 0);
  bits[0] = 1;
  bits[69] = 1;
  EXPECT_TRUE(bank.insert_bits(bits));
  std::vector<std::uint64_t> key(bank.n_words(), 0);
  key[0] = 1ULL;
  key[1] = 1ULL << 5;  // bit 69
  EXPECT_FALSE(bank.insert(key));
}

TEST(ShardedUniqueBank, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedUniqueBank(8, 1).n_shards(), 1u);
  EXPECT_EQ(ShardedUniqueBank(8, 3).n_shards(), 4u);
  EXPECT_EQ(ShardedUniqueBank(8, 64).n_shards(), 64u);
}

// The core concurrency contract: heavily overlapping insert storms from many
// threads must neither lose a distinct key nor double-count a duplicate.
TEST(ShardedUniqueBank, ConcurrentInsertsCountExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kDistinct = 2000;
  ShardedUniqueBank bank(64);
  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread walks the same distinct key set in a different order, so
      // nearly every insert races with a sibling on the same key.
      util::Rng rng = util::Rng::stream(7, t);
      std::vector<std::uint64_t> order(kDistinct);
      for (std::uint64_t i = 0; i < kDistinct; ++i) order[i] = i;
      rng.shuffle(order);
      std::vector<std::uint64_t> key(1);
      for (const std::uint64_t value : order) {
        key[0] = value;
        if (bank.insert(key)) accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bank.size(), kDistinct);
  EXPECT_EQ(accepted.load(), kDistinct);
}

// --- round-parallel GD loop -------------------------------------------------

/// (x1|x2) & (x3|x4) & (~x1|~x3) over 7 vars: 5 constrained models
/// times 2^3 free variables = 40 total models.
cnf::Formula small_formula() {
  return cnf::parse_dimacs_string("p cnf 7 3\n1 2 0\n3 4 0\n-1 -3 0\n");
}

RunOptions fast_options(std::size_t min_solutions) {
  RunOptions options;
  options.min_solutions = min_solutions;
  options.budget_ms = 10000.0;
  options.store_limit = 128;
  options.verify_against_cnf = true;
  options.seed = 123;
  return options;
}

GradientConfig small_config(std::size_t n_workers) {
  GradientConfig config;
  config.batch = 256;
  config.n_workers = n_workers;
  return config;
}

TEST(GdParallel, SingleWorkerIsDeterministic) {
  const cnf::Formula formula = small_formula();
  GradientSampler a(small_config(1));
  GradientSampler b(small_config(1));
  const RunResult ra = a.run(formula, fast_options(40));
  const RunResult rb = b.run(formula, fast_options(40));
  EXPECT_EQ(ra.n_unique, rb.n_unique);
  EXPECT_EQ(ra.n_valid, rb.n_valid);
  ASSERT_EQ(ra.solutions.size(), rb.solutions.size());
  for (std::size_t i = 0; i < ra.solutions.size(); ++i) {
    EXPECT_EQ(ra.solutions[i], rb.solutions[i]) << "solution " << i;
  }
  EXPECT_EQ(a.extras().uniques_per_iteration,
            b.extras().uniques_per_iteration);
}

TEST(GdParallel, ParallelWorkersFindOnlyValidSolutions) {
  const cnf::Formula formula = small_formula();
  GradientSampler sampler(small_config(3));
  const RunResult result = sampler.run(formula, fast_options(40));
  EXPECT_GT(result.n_unique, 0u);
  EXPECT_EQ(result.n_invalid, 0u);
  EXPECT_GE(result.n_unique, 40u);
  EXPECT_FALSE(result.timed_out);
}

TEST(GdParallel, ParallelUniqueCountNeverExceedsExactModelCount) {
  const cnf::Formula formula = small_formula();
  const std::uint64_t exact = solver::count_models(formula);
  ASSERT_EQ(exact, 40u);
  // Target beyond the model count: the run must saturate at exactly the
  // enumerable total — a merge race that double-counted would overshoot.
  RunOptions options = fast_options(0);
  options.budget_ms = 1500.0;
  GradientSampler sampler(small_config(4));
  const RunResult result = sampler.run(formula, options);
  EXPECT_LE(result.n_unique, exact);
  EXPECT_GT(result.n_unique, 0u);
}

TEST(GdParallel, ParallelSaturatesEnumerableInstance) {
  const cnf::Formula formula = small_formula();
  GradientSampler serial(small_config(1));
  GradientSampler parallel(small_config(4));
  const RunResult rs = serial.run(formula, fast_options(40));
  const RunResult rp = parallel.run(formula, fast_options(40));
  EXPECT_EQ(rs.n_unique, 40u);
  EXPECT_EQ(rp.n_unique, 40u);
}

TEST(GdParallel, HardwareWorkerSelectionRuns) {
  const cnf::Formula formula = small_formula();
  GradientSampler sampler(small_config(0));  // 0 = hardware concurrency
  const RunResult result = sampler.run(formula, fast_options(20));
  EXPECT_GE(result.n_unique, 20u);
  EXPECT_EQ(result.n_invalid, 0u);
}

TEST(GdParallel, MaxRoundsBoundsTotalAcrossWorkers) {
  const cnf::Formula formula = small_formula();
  const baselines::FlatProblem flat = baselines::build_flat_problem(formula);
  GdProblem problem;
  problem.circuit = &flat.circuit;
  problem.var_signal = &flat.var_signal;

  GdLoopConfig config;
  config.batch = 64;
  config.max_rounds = 3;
  config.n_workers = 4;
  RunOptions options;
  options.min_solutions = 0;  // only the round budget may stop the run
  options.budget_ms = 10000.0;

  GdLoopExtras extras;
  (void)run_gd_loop(problem, formula, options, config, &extras);
  EXPECT_LE(extras.rounds, 3u);
  EXPECT_GE(extras.rounds, 1u);
}

TEST(GdParallel, WorkersClampedToMaxRounds) {
  // With fewer rounds than workers, the surplus workers (which could never
  // claim a round) must not allocate engines — visible through the summed
  // memory metric matching a single engine.
  const cnf::Formula formula = small_formula();
  const baselines::FlatProblem flat = baselines::build_flat_problem(formula);
  GdProblem problem;
  problem.circuit = &flat.circuit;
  problem.var_signal = &flat.var_signal;

  GdLoopConfig config;
  config.batch = 64;
  config.max_rounds = 1;
  RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = 10000.0;

  GdLoopExtras serial_extras;
  config.n_workers = 1;
  (void)run_gd_loop(problem, formula, options, config, &serial_extras);

  GdLoopExtras parallel_extras;
  config.n_workers = 8;
  (void)run_gd_loop(problem, formula, options, config, &parallel_extras);

  EXPECT_EQ(parallel_extras.engine_memory_bytes,
            serial_extras.engine_memory_bytes);
  EXPECT_EQ(parallel_extras.rounds, 1u);
}

TEST(GdParallel, WeightedInputsAreKeptAndEngineMemorySumsAcrossWorkers) {
  // Merging worker counters must sum what scales with workers (engine
  // memory) but keep what every engine shares (the resolved lit weights).
  const cnf::Formula formula = small_formula();
  const baselines::FlatProblem flat = baselines::build_flat_problem(formula);
  GdProblem problem;
  problem.circuit = &flat.circuit;
  problem.var_signal = &flat.var_signal;

  GdLoopConfig config;
  config.batch = 64;
  config.max_rounds = 4;
  config.lit_weights = {{0, false, 1.0f}, {5, true, 0.5f}};
  RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = 10000.0;

  GdLoopExtras serial_extras;
  config.n_workers = 1;
  (void)run_gd_loop(problem, formula, options, config, &serial_extras);

  GdLoopExtras parallel_extras;
  config.n_workers = 4;
  (void)run_gd_loop(problem, formula, options, config, &parallel_extras);

  EXPECT_EQ(serial_extras.weighted_inputs, 2u);
  EXPECT_EQ(parallel_extras.weighted_inputs, serial_extras.weighted_inputs);
  EXPECT_EQ(parallel_extras.engine_memory_bytes,
            4 * serial_extras.engine_memory_bytes);
}

// --- solved-row restarts ----------------------------------------------------

TEST(GdParallel, SolvedRowRestartsStayDeterministicAndSaturate) {
  const cnf::Formula formula = small_formula();
  for (const bool restart : {false, true}) {
    GradientConfig config = small_config(1);
    config.restart_solved = restart;
    GradientSampler a(config);
    GradientSampler b(config);
    const RunResult ra = a.run(formula, fast_options(40));
    const RunResult rb = b.run(formula, fast_options(40));
    EXPECT_EQ(ra.n_unique, 40u) << "restart_solved = " << restart;
    EXPECT_EQ(ra.n_unique, rb.n_unique) << "restart_solved = " << restart;
    EXPECT_EQ(ra.n_valid, rb.n_valid) << "restart_solved = " << restart;
    EXPECT_EQ(ra.n_invalid, 0u);
  }
}

TEST(GdParallel, RestartExtrasCountReseededRows) {
  // The small formula's random initializations satisfy often, so rounds with
  // mid-round harvests must re-seed a nonzero number of rows — and exactly
  // zero with the knob off.
  const cnf::Formula formula = small_formula();
  const baselines::FlatProblem flat = baselines::build_flat_problem(formula);
  GdProblem problem;
  problem.circuit = &flat.circuit;
  problem.var_signal = &flat.var_signal;

  GdLoopConfig config;
  config.batch = 128;
  config.max_rounds = 2;
  RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = 10000.0;

  GdLoopExtras on_extras;
  config.restart_solved = true;
  (void)run_gd_loop(problem, formula, options, config, &on_extras);
  EXPECT_GT(on_extras.restarted_rows, 0u);

  GdLoopExtras off_extras;
  config.restart_solved = false;
  (void)run_gd_loop(problem, formula, options, config, &off_extras);
  EXPECT_EQ(off_extras.restarted_rows, 0u);
}

TEST(GdParallel, PlateauRestartsReseedStuckRows) {
  // An unsatisfiable pair of unit clauses pins the flat relaxation's optimum
  // at loss 0.5 per row: no row ever solves, descent converges in a few
  // iterations, and every row then stops improving — the stuck-basin shape
  // restart_plateau exists for.  With the knob off nothing is re-seeded.
  const cnf::Formula formula = cnf::parse_dimacs_string("p cnf 2 2\n1 0\n-1 0\n");
  const baselines::FlatProblem flat = baselines::build_flat_problem(formula);
  GdProblem problem;
  problem.circuit = &flat.circuit;
  problem.var_signal = &flat.var_signal;

  GdLoopConfig config;
  config.batch = 128;
  config.iterations = 12;  // enough windows to converge and then stall
  config.max_rounds = 2;
  RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = 10000.0;

  GdLoopExtras on_extras;
  config.restart_plateau = 1;
  (void)run_gd_loop(problem, formula, options, config, &on_extras);
  EXPECT_GT(on_extras.plateau_restarted_rows, 0u);

  GdLoopExtras off_extras;
  config.restart_plateau = 0;
  (void)run_gd_loop(problem, formula, options, config, &off_extras);
  EXPECT_EQ(off_extras.plateau_restarted_rows, 0u);

  // A larger patience re-seeds no more often than an impatient one.
  GdLoopExtras patient_extras;
  config.restart_plateau = 4;
  (void)run_gd_loop(problem, formula, options, config, &patient_extras);
  EXPECT_LE(patient_extras.plateau_restarted_rows,
            on_extras.plateau_restarted_rows);
}

TEST(GdParallel, PlateauRestartsStayDeterministicAndValid) {
  const cnf::Formula formula = small_formula();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    GradientConfig config = small_config(workers);
    config.restart_plateau = 2;
    GradientSampler a(config);
    GradientSampler b(config);
    const RunResult ra = a.run(formula, fast_options(40));
    EXPECT_EQ(ra.n_invalid, 0u) << workers;
    EXPECT_EQ(ra.n_unique, 40u) << workers;
    if (workers == 1) {
      const RunResult rb = b.run(formula, fast_options(40));
      EXPECT_EQ(ra.n_unique, rb.n_unique);
      EXPECT_EQ(ra.n_valid, rb.n_valid);
    }
    for (const cnf::Assignment& solution : ra.solutions) {
      EXPECT_TRUE(formula.satisfied_by(solution)) << workers;
    }
  }
}

TEST(GdParallel, PerIterationCurveMonotoneUnderMerge) {
  const cnf::Formula formula = small_formula();
  GradientSampler sampler(small_config(3));
  const RunResult result = sampler.run(formula, fast_options(30));
  const std::vector<std::size_t>& curve = sampler.extras().uniques_per_iteration;
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]) << "iteration " << i;
  }
  // Slots snapshot the shared bank, so the curve can never overshoot the
  // final global unique count.
  EXPECT_LE(curve.back(), result.n_unique);
  EXPECT_GT(curve.back(), 0u);
}

TEST(GdParallel, ProgressTimelineMonotoneAfterInterleave) {
  const cnf::Formula formula = small_formula();
  GradientSampler sampler(small_config(3));
  const RunResult result = sampler.run(formula, fast_options(30));
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_GE(result.progress[i].elapsed_ms, result.progress[i - 1].elapsed_ms);
    EXPECT_GE(result.progress[i].n_unique, result.progress[i - 1].n_unique);
  }
}

TEST(GdParallel, StoreLimitRespectedUnderMerge) {
  const cnf::Formula formula = small_formula();
  RunOptions options = fast_options(30);
  options.store_limit = 10;
  GradientSampler sampler(small_config(4));
  const RunResult result = sampler.run(formula, options);
  EXPECT_LE(result.solutions.size(), 10u);
  for (const cnf::Assignment& solution : result.solutions) {
    EXPECT_TRUE(formula.satisfied_by(solution));
  }
}

// --- cooperative cancellation (RunOptions::stop) -----------------------------

TEST(GdParallel, PreFiredStopTokenReturnsImmediately) {
  const cnf::Formula formula = small_formula();
  util::StopSource source;
  source.request_stop();
  for (const std::size_t n_workers : {std::size_t{1}, std::size_t{3}}) {
    GradientSampler sampler(small_config(n_workers));
    RunOptions options = fast_options(1000000);  // unreachable target
    options.budget_ms = 60000.0;
    options.stop = source.token();
    util::Timer timer;
    const RunResult result = sampler.run(formula, options);
    // At most one round sneaks in before the first boundary poll.
    EXPECT_LT(timer.milliseconds(), 30000.0);
    EXPECT_TRUE(result.timed_out);
    EXPECT_EQ(result.n_invalid, 0u);
  }
}

TEST(GdParallel, AsyncStopCancelsALongRunCleanly) {
  const cnf::Formula formula = small_formula();
  for (const std::size_t n_workers : {std::size_t{1}, std::size_t{2}}) {
    GradientSampler sampler(small_config(n_workers));
    RunOptions options = fast_options(1000000);  // can never complete
    options.budget_ms = 120000.0;  // the stop must beat this by far
    util::StopSource source;
    options.stop = source.token();
    std::thread canceller([&source] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      source.request_stop();
    });
    util::Timer timer;
    const RunResult result = sampler.run(formula, options);
    canceller.join();
    EXPECT_LT(timer.milliseconds(), 60000.0);
    // Partial results are intact: every surviving solution still verifies.
    EXPECT_EQ(result.n_invalid, 0u);
    EXPECT_GT(result.n_unique, 0u);
  }
}

TEST(GdParallel, EmptyStopTokenChangesNothing) {
  // The default token must be inert: identical results with and without an
  // (unfired) source attached.
  const cnf::Formula formula = small_formula();
  GradientSampler plain(small_config(1));
  const RunResult base = plain.run(formula, fast_options(40));
  util::StopSource source;  // never fired
  GradientSampler tokened(small_config(1));
  RunOptions options = fast_options(40);
  options.stop = source.token();
  const RunResult with_token = tokened.run(formula, options);
  EXPECT_EQ(base.n_unique, with_token.n_unique);
  EXPECT_EQ(base.n_valid, with_token.n_valid);
  ASSERT_EQ(base.solutions.size(), with_token.solutions.size());
  for (std::size_t i = 0; i < base.solutions.size(); ++i) {
    EXPECT_EQ(base.solutions[i], with_token.solutions[i]) << "solution " << i;
  }
}

// --- bank memory accounting (ShardedUniqueBank::size_bytes) ------------------

TEST(ShardedUniqueBank, SizeBytesGrowsLinearlyWithInserts) {
  ShardedUniqueBank bank(130);  // 3 words per key
  EXPECT_EQ(bank.size_bytes(), 0u);
  std::vector<std::uint64_t> key(bank.n_words(), 0);
  ASSERT_TRUE(bank.insert(key));
  const std::size_t per_key = bank.size_bytes();
  // At least the raw key words; plus bounded bookkeeping overhead.
  EXPECT_GE(per_key, bank.n_words() * sizeof(std::uint64_t));
  EXPECT_LE(per_key, bank.n_words() * sizeof(std::uint64_t) + 128u);
  for (std::uint64_t i = 1; i < 100; ++i) {
    key[0] = i;
    ASSERT_TRUE(bank.insert(key));
  }
  EXPECT_EQ(bank.size_bytes(), 100u * per_key);
  // Duplicates cost nothing.
  key[0] = 5;
  EXPECT_FALSE(bank.insert(key));
  EXPECT_EQ(bank.size_bytes(), 100u * per_key);
}

TEST(UniqueBank, SizeBytesMatchesShardedAccounting) {
  UniqueBank serial(70);
  ShardedUniqueBank sharded(70);
  std::vector<std::uint64_t> key(serial.n_words(), 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    key[0] = i;
    ASSERT_TRUE(serial.insert(key));
    ASSERT_TRUE(sharded.insert(key));
  }
  EXPECT_EQ(serial.size_bytes(), sharded.size_bytes());
  EXPECT_GT(serial.size_bytes(), 0u);
}

}  // namespace
}  // namespace hts::sampler
