#include "core/gd_loop.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "circuit/eval_plan.hpp"
#include "core/harvester.hpp"
#include "core/round_runner.hpp"
#include "core/unique_bank.hpp"
#include "prob/engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hts::sampler {

namespace {

/// The legacy single-thread loop, kept so n_workers == 1 reproduces
/// pre-refactor results bit for bit (same RNG consumption order, same bank
/// insertion order, same progress checkpoints).  The round body itself
/// lives in RoundRunner (shared with the round-parallel workers and the
/// sampling service); this function owns the across-round policy: when to
/// start another round and what a checkpoint records.
RunResult run_serial(const GdProblem& problem, const cnf::Formula& formula,
                     const RunOptions& options, const GdLoopConfig& config,
                     const prob::CompiledCircuit& compiled,
                     const circuit::EvalPlan& eval_plan, GdLoopExtras* extras) {
  RunResult result;
  prob::Engine engine(compiled, engine_config_for(config, problem));

  util::Rng rng(options.seed);
  util::Deadline deadline(options.budget_ms);
  util::Timer timer;
  UniqueBank bank(bank_key_bits(problem, config));
  Harvester<UniqueBank> harvester(problem, formula, options, bank, result,
                                  &eval_plan, /*inline_eval=*/false,
                                  harvest_mode_for(problem, config));
  RoundRunner<UniqueBank> runner(config, engine, harvester);

  std::vector<std::size_t> uniques_per_iteration(
      static_cast<std::size_t>(config.iterations) + 1, 0);
  std::uint64_t rounds = 0;

  auto reached_target = [&] {
    return options.min_solutions > 0 &&
           harvester.n_unique() >= options.min_solutions;
  };
  auto checkpoint = [&](int iter) {
    const auto slot = static_cast<std::size_t>(iter);
    uniques_per_iteration[slot] =
        std::max(uniques_per_iteration[slot], harvester.n_unique());
    if (iter > 0) {
      result.progress.push_back(
          ProgressPoint{timer.milliseconds(), harvester.n_unique()});
    }
  };
  auto stop_now = [&] {
    return reached_target() || deadline.expired() ||
           options.stop.stop_requested();
  };

  while (!reached_target() && !deadline.expired() &&
         !options.stop.stop_requested() &&
         (config.max_rounds == 0 || rounds < config.max_rounds)) {
    ++rounds;
    runner.run_round(rng, checkpoint, stop_now);
  }

  result.n_unique = harvester.n_unique();
  result.elapsed_ms = timer.milliseconds();
  result.timed_out = !reached_target() && options.min_solutions > 0;
  // Rounds may end early (target/deadline) before filling late iteration
  // slots; present the curve as a cumulative maximum so it reads as "uniques
  // available by iteration i".
  for (std::size_t i = 1; i < uniques_per_iteration.size(); ++i) {
    uniques_per_iteration[i] =
        std::max(uniques_per_iteration[i], uniques_per_iteration[i - 1]);
  }
  if (extras != nullptr) {
    extras->uniques_per_iteration = std::move(uniques_per_iteration);
    extras->engine_memory_bytes = engine.memory_bytes();
    extras->rounds = rounds;
    extras->restarted_rows = runner.restarted_rows();
    extras->plateau_restarted_rows = runner.plateau_restarted_rows();
    extras->gd_iterations = runner.gd_iterations();
    extras->rows_validated = harvester.rows_validated();
    extras->harvest_ms = harvester.harvest_ms();
    extras->amplified_candidates = runner.amplified_candidates();
    extras->amplified_uniques = runner.amplified_uniques();
    extras->amplify_ms = runner.amplify_ms();
    extras->diversity_restarted_rows = runner.diversity_restarted_rows();
    extras->weighted_inputs = engine.n_weighted_inputs();
  }
  return result;
}

/// Round-parallel execution: N workers, each owning an engine and a
/// decorrelated RNG stream, race through independent randomize -> iterate ->
/// harden rounds and merge uniques into one shared sharded bank.  Rounds are
/// claimed from a shared counter (so max_rounds bounds the total), and the
/// target / deadline / cancellation checks read the *global* state, so
/// workers stop as soon as the fleet collectively reaches the goal.
RunResult run_parallel(const GdProblem& problem, const cnf::Formula& formula,
                       const RunOptions& options, const GdLoopConfig& config,
                       const prob::CompiledCircuit& compiled,
                       const circuit::EvalPlan& eval_plan,
                       std::size_t n_workers, GdLoopExtras* extras) {
  struct WorkerOutput {
    RunResult result;
    std::vector<std::size_t> uniques_per_iteration;
    std::size_t engine_bytes = 0;
    std::uint64_t rounds = 0;
    std::uint64_t restarted_rows = 0;
    std::uint64_t plateau_restarted_rows = 0;
    std::uint64_t gd_iterations = 0;
    std::uint64_t rows_validated = 0;
    double harvest_ms = 0.0;
    std::uint64_t amplified_candidates = 0;
    std::uint64_t amplified_uniques = 0;
    double amplify_ms = 0.0;
    std::uint64_t diversity_restarted_rows = 0;
  };

  const std::size_t n_slots = static_cast<std::size_t>(config.iterations) + 1;
  std::vector<WorkerOutput> outputs(n_workers);
  for (WorkerOutput& out : outputs) out.uniques_per_iteration.assign(n_slots, 0);

  // Synchronization audit (Clang -Wthread-safety covers the mutex-based
  // components; this function is lock-free by design, so the contract lives
  // here): each worker writes only outputs[w] — its private slot — while it
  // runs; the merge below reads all slots only after join(), which carries
  // the happens-before edge.  The bank serializes internally per shard,
  // `stop`/`next_round` are atomics, and everything else the workers touch
  // (compiled plans, options, deadline) is read-only for the whole run.
  ShardedUniqueBank bank(bank_key_bits(problem, config));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_round{0};

  // Engines are built before the clock starts, mirroring the serial path
  // where construction precedes the Deadline: buffer allocation for a large
  // instance can cost more than a tight budget, and a worker that wakes up
  // already expired would contribute nothing.
  std::vector<std::unique_ptr<prob::Engine>> engines;
  engines.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    engines.push_back(std::make_unique<prob::Engine>(
        compiled, engine_config_for(config, problem)));
  }

  util::Deadline deadline(options.budget_ms);
  util::Timer timer;

  auto reached_target = [&] {
    return options.min_solutions > 0 && bank.size() >= options.min_solutions;
  };

  auto worker_fn = [&](std::size_t w) {
    WorkerOutput& out = outputs[w];
    prob::Engine& engine = *engines[w];
    util::Rng rng = util::Rng::stream(options.seed, w);
    Harvester<ShardedUniqueBank> harvester(
        problem, formula, options, bank, out.result, &eval_plan,
        /*inline_eval=*/false, harvest_mode_for(problem, config));
    RoundRunner<ShardedUniqueBank> runner(config, engine, harvester);

    auto checkpoint = [&](int iter) {
      const auto slot = static_cast<std::size_t>(iter);
      out.uniques_per_iteration[slot] =
          std::max(out.uniques_per_iteration[slot], bank.size());
      if (iter > 0) {
        out.result.progress.push_back(
            ProgressPoint{timer.milliseconds(), bank.size()});
      }
    };
    auto stop_now = [&] {
      if (reached_target() || deadline.expired() ||
          options.stop.stop_requested()) {
        stop.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };

    while (!stop.load(std::memory_order_relaxed)) {
      if (stop_now()) break;
      const std::uint64_t round = next_round.fetch_add(1);
      if (config.max_rounds != 0 && round >= config.max_rounds) break;
      ++out.rounds;
      runner.run_round(rng, checkpoint, stop_now);
    }
    out.engine_bytes = engine.memory_bytes();
    out.restarted_rows = runner.restarted_rows();
    out.plateau_restarted_rows = runner.plateau_restarted_rows();
    out.gd_iterations = runner.gd_iterations();
    out.rows_validated = harvester.rows_validated();
    out.harvest_ms = harvester.harvest_ms();
    out.amplified_candidates = runner.amplified_candidates();
    out.amplified_uniques = runner.amplified_uniques();
    out.amplify_ms = runner.amplify_ms();
    out.diversity_restarted_rows = runner.diversity_restarted_rows();
  };

  std::vector<std::thread> threads;
  threads.reserve(n_workers - 1);
  for (std::size_t w = 1; w < n_workers; ++w) threads.emplace_back(worker_fn, w);
  worker_fn(0);
  for (std::thread& t : threads) t.join();

  // ---- merge ----
  RunResult result;
  std::vector<std::size_t> uniques_per_iteration(n_slots, 0);
  std::uint64_t rounds = 0;
  std::uint64_t restarted_rows = 0;
  std::uint64_t plateau_restarted_rows = 0;
  std::uint64_t gd_iterations = 0;
  std::uint64_t rows_validated = 0;
  double harvest_ms = 0.0;
  std::uint64_t amplified_candidates = 0;
  std::uint64_t amplified_uniques = 0;
  double amplify_ms = 0.0;
  std::uint64_t diversity_restarted_rows = 0;
  std::size_t engine_bytes = 0;
  for (WorkerOutput& out : outputs) {
    result.n_valid += out.result.n_valid;
    result.n_invalid += out.result.n_invalid;
    result.progress.insert(result.progress.end(), out.result.progress.begin(),
                           out.result.progress.end());
    for (cnf::Assignment& solution : out.result.solutions) {
      if (result.solutions.size() >= options.store_limit) break;
      result.solutions.push_back(std::move(solution));
    }
    for (std::size_t i = 0; i < n_slots; ++i) {
      uniques_per_iteration[i] =
          std::max(uniques_per_iteration[i], out.uniques_per_iteration[i]);
    }
    rounds += out.rounds;
    restarted_rows += out.restarted_rows;
    plateau_restarted_rows += out.plateau_restarted_rows;
    gd_iterations += out.gd_iterations;
    rows_validated += out.rows_validated;
    harvest_ms += out.harvest_ms;
    amplified_candidates += out.amplified_candidates;
    amplified_uniques += out.amplified_uniques;
    amplify_ms += out.amplify_ms;
    diversity_restarted_rows += out.diversity_restarted_rows;
    engine_bytes += out.engine_bytes;
  }
  // Each worker's checkpoints are individually chronological; interleave
  // them into one timeline.  Counts are global-bank snapshots, so enforcing
  // a running maximum restores monotonicity across the interleaving.
  std::sort(result.progress.begin(), result.progress.end(),
            [](const ProgressPoint& a, const ProgressPoint& b) {
              return a.elapsed_ms < b.elapsed_ms;
            });
  std::size_t running_max = 0;
  for (ProgressPoint& point : result.progress) {
    running_max = std::max(running_max, point.n_unique);
    point.n_unique = running_max;
  }

  result.n_unique = bank.size();
  result.elapsed_ms = timer.milliseconds();
  result.timed_out = !reached_target() && options.min_solutions > 0;
  for (std::size_t i = 1; i < n_slots; ++i) {
    uniques_per_iteration[i] =
        std::max(uniques_per_iteration[i], uniques_per_iteration[i - 1]);
  }
  if (extras != nullptr) {
    extras->uniques_per_iteration = std::move(uniques_per_iteration);
    // Total footprint of the fleet (engine memory scales with workers just
    // as V does with batch).
    extras->engine_memory_bytes = engine_bytes;
    extras->rounds = rounds;
    extras->restarted_rows = restarted_rows;
    extras->plateau_restarted_rows = plateau_restarted_rows;
    extras->gd_iterations = gd_iterations;
    extras->rows_validated = rows_validated;
    extras->harvest_ms = harvest_ms;
    extras->amplified_candidates = amplified_candidates;
    extras->amplified_uniques = amplified_uniques;
    extras->amplify_ms = amplify_ms;
    extras->diversity_restarted_rows = diversity_restarted_rows;
    extras->weighted_inputs = engines[0]->n_weighted_inputs();
  }
  return result;
}

}  // namespace

std::vector<cnf::Var> normalize_sampling_set(std::vector<cnf::Var> set,
                                             std::size_t n_vars) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  set.erase(std::remove_if(set.begin(), set.end(),
                           [n_vars](cnf::Var v) {
                             return v == cnf::kInvalidVar ||
                                    static_cast<std::size_t>(v) >= n_vars;
                           }),
            set.end());
  return set;
}

RunResult run_gd_loop(const GdProblem& problem, const cnf::Formula& formula,
                      const RunOptions& options, const GdLoopConfig& config,
                      GdLoopExtras* extras) {
  prob::CompiledCircuit compiled(
      *problem.circuit,
      prob::CompiledCircuit::Options{config.cone_only, config.optimize_tape});
  // One compiled word-parallel evaluator per run, shared by every worker's
  // harvester (immutable after construction, so concurrent reads are free).
  const circuit::EvalPlan eval_plan(*problem.circuit);
  std::size_t n_workers = config.n_workers;
  if (n_workers == 0) {
    n_workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (config.max_rounds != 0 && n_workers > config.max_rounds) {
    // A worker that can never claim a round would still pay for a full
    // engine allocation and inflate the reported memory footprint.
    n_workers = static_cast<std::size_t>(config.max_rounds);
  }
  if (n_workers <= 1) {
    return run_serial(problem, formula, options, config, compiled, eval_plan,
                      extras);
  }
  return run_parallel(problem, formula, options, config, compiled, eval_plan,
                      n_workers, extras);
}

}  // namespace hts::sampler
