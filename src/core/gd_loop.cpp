#include "core/gd_loop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "circuit/eval_plan.hpp"
#include "core/round_runner.hpp"
#include "core/unique_bank.hpp"
#include "prob/compiled.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hts::sampler {

namespace {

/// Runs rounds of the loop on `n_workers` runners that share one bank.  One
/// worker is the legacy serial loop: it runs on the calling thread, banks
/// into a plain UniqueBank and draws from Rng(seed), so n_workers == 1
/// reproduces pre-refactor results bit for bit (same RNG consumption order,
/// same bank insertion order, same progress checkpoints).  More workers
/// each draw from a decorrelated Rng::stream(seed, w), race through rounds
/// claimed from a shared counter (so max_rounds bounds the total) and merge
/// uniques into one ShardedUniqueBank; the target and stop-token checks read
/// the *global* state, so workers stop as soon as the fleet collectively
/// reaches the goal.  The round body itself lives in
/// RoundRunner; this function owns the across-round policy: when to start
/// another round and what a checkpoint records.
template <typename Bank>
RunResult run_workers(const prob::CompiledCircuit& compiled,
                      const circuit::EvalPlan& eval_plan,
                      const GdProblem& problem, const cnf::Formula& formula,
                      const RunOptions& options, const GdLoopConfig& config,
                      std::size_t n_workers, GdLoopExtras* extras) {
  Bank bank(bank_key_bits(problem, config));
  // Every runner, engine buffers included, is built before the clock
  // starts (and before the budget is added to the token they poll):
  // allocation for a large instance can cost more than a tight budget, and
  // a worker that woke up already expired would contribute nothing.
  std::vector<std::unique_ptr<RoundRunner<Bank>>> runners;
  runners.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    runners.push_back(std::make_unique<RoundRunner<Bank>>(
        compiled, eval_plan, problem, formula, options, config, bank));
  }
  const std::size_t n_slots = static_cast<std::size_t>(config.iterations) + 1;
  std::vector<std::vector<std::size_t>> curves(
      n_workers, std::vector<std::size_t>(n_slots, 0));

  // Synchronization audit (Clang -Wthread-safety covers the mutex-based
  // components; this function is lock-free by design, so the contract lives
  // here): worker w writes only runners[w] and curves[w] while it runs; the
  // merge below reads them only after join(), which carries the
  // happens-before edge.  The bank serializes internally per shard (one
  // worker needs no locking), `stop`/`next_round` are atomics, and
  // everything else the workers touch (compiled plans, options, the stop
  // token) is read-only for the whole run.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_round{0};
  // The sampling clock starts here.  The caller's token plus the budget is
  // the one stop signal the round loop, every harvest block and every
  // amplifier base polls.
  const util::Timer timer;
  const util::StopToken stop_token = options.stop.with_budget(options.budget_ms);
  for (const std::unique_ptr<RoundRunner<Bank>>& runner : runners) {
    runner->set_stop(stop_token);
  }

  auto reached_target = [&] {
    return options.min_solutions > 0 && bank.size() >= options.min_solutions;
  };

  auto worker = [&](std::size_t w) {
    RoundRunner<Bank>& runner = *runners[w];
    std::vector<std::size_t>& curve = curves[w];
    util::Rng rng = n_workers == 1 ? util::Rng(options.seed)
                                   : util::Rng::stream(options.seed, w);
    auto checkpoint = [&](int iter) {
      const auto slot = static_cast<std::size_t>(iter);
      curve[slot] = std::max(curve[slot], bank.size());
      if (iter > 0) {
        runner.result().progress.push_back(
            ProgressPoint{timer.milliseconds(), bank.size()});
      }
    };
    auto stop_now = [&] {
      if (reached_target() || stop_token.stop_requested()) {
        stop.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    while (!stop.load(std::memory_order_relaxed) && !stop_now()) {
      const std::uint64_t round = next_round.fetch_add(1);
      if (config.max_rounds != 0 && round >= config.max_rounds) break;
      runner.run_round(rng, checkpoint, stop_now);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n_workers - 1);
  for (std::size_t w = 1; w < n_workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();

  // ---- merge ----
  RunResult result;
  LoopCounters counters;
  std::vector<std::size_t> uniques_per_iteration(n_slots, 0);
  for (std::size_t w = 0; w < n_workers; ++w) {
    RunResult& part = runners[w]->result();
    result.n_valid += part.n_valid;
    result.n_invalid += part.n_invalid;
    result.progress.insert(result.progress.end(), part.progress.begin(),
                           part.progress.end());
    for (cnf::Assignment& solution : part.solutions) {
      if (result.solutions.size() >= options.store_limit) break;
      result.solutions.push_back(std::move(solution));
    }
    for (std::size_t i = 0; i < n_slots; ++i) {
      uniques_per_iteration[i] =
          std::max(uniques_per_iteration[i], curves[w][i]);
    }
    counters += runners[w]->counters();
  }
  // Each worker's checkpoints are individually chronological; interleave
  // them into one timeline (a stable sort leaves one worker's as it is).
  // Counts are global-bank snapshots, so enforcing a running maximum
  // restores monotonicity across the interleaving.
  std::stable_sort(result.progress.begin(), result.progress.end(),
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
  // Rounds may end early (target/deadline) before filling late iteration
  // slots; present the curve as a cumulative maximum so it reads as "uniques
  // available by iteration i".
  for (std::size_t i = 1; i < n_slots; ++i) {
    uniques_per_iteration[i] =
        std::max(uniques_per_iteration[i], uniques_per_iteration[i - 1]);
  }
  if (extras != nullptr) {
    static_cast<LoopCounters&>(*extras) = counters;
    extras->uniques_per_iteration = std::move(uniques_per_iteration);
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

void validate_config(const GdLoopConfig& config, std::size_t n_vars) {
  using Invalid = std::invalid_argument;
  auto positive = [](float x) { return std::isfinite(x) && x > 0.0f; };
  if (config.batch == 0) throw Invalid("config.batch must be > 0");
  // Whole 64-row words of the batch, times one float per variable, in bytes.
  const std::size_t max_batch = std::numeric_limits<std::size_t>::max() /
                                sizeof(float) / std::max<std::size_t>(n_vars, 1) /
                                64 * 64;
  if (config.batch > max_batch) {
    throw Invalid("config.batch " + std::to_string(config.batch) +
                  " overflows the batch buffers for " + std::to_string(n_vars) +
                  " variables (at most " + std::to_string(max_batch) + ")");
  }
  if (config.iterations < 0) {
    throw Invalid("config.iterations must be >= 0, got " +
                  std::to_string(config.iterations));
  }
  if (!positive(config.learning_rate)) {
    throw Invalid("config.learning_rate must be finite and > 0");
  }
  if (!positive(config.init_std)) {
    throw Invalid("config.init_std must be finite and > 0");
  }
  for (const LitWeight& lit : config.lit_weights) {
    if (!std::isfinite(lit.weight)) {
      throw Invalid("config.lit_weights weight must be finite");
    }
    if (lit.var >= n_vars) {
      throw Invalid("config.lit_weights variable " + std::to_string(lit.var) +
                    " is not below the problem's " + std::to_string(n_vars) +
                    " variables");
    }
  }
}

RunResult run_gd_loop(const GdProblem& problem, const cnf::Formula& formula,
                      const RunOptions& options, const GdLoopConfig& config,
                      GdLoopExtras* extras) {
  require_run_bound(options, config.max_rounds > 0);
  validate_config(config, problem.var_signal->size());
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
    return run_workers<UniqueBank>(compiled, eval_plan, problem, formula,
                                   options, config, 1, extras);
  }
  return run_workers<ShardedUniqueBank>(compiled, eval_plan, problem, formula,
                                        options, config, n_workers, extras);
}

}  // namespace hts::sampler
