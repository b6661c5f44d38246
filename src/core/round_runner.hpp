#pragma once

// One session of the GD loop: an engine, a harvester and the restart and
// amplify helpers, built one way from (compiled tape, EvalPlan, problem,
// options, config, bank) and driven one round at a time.  The serial loop,
// the round-parallel workers and a service job all build a RoundRunner and
// call run_round; what differs between them (where the unique count lives,
// what a checkpoint records, when to bail out) enters through the two
// callbacks.
//
// Determinism contract: for a fixed RNG state the runner consumes random
// draws in exactly the historical order (randomize, then restart draws per
// harvest window), calls collect() at exactly the historical points, and
// never draws on behalf of bookkeeping — so the serial loop stays
// bit-identical to the pre-extraction loop, and a service job whose rounds
// are seeded per-round (util::Rng::stream(seed, round)) produces one
// well-defined solution stream no matter which worker runs which slice.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/eval_plan.hpp"
#include "core/amplifier.hpp"
#include "core/gd_loop.hpp"
#include "core/harvester.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hts::sampler {

/// Engine configuration implied by a loop configuration, shared by every
/// engine built for the GD loop, so a config knob can never reach one path
/// but not another.  GdLoopConfig::lit_weights resolve through the
/// problem's input -> variable mapping into engine bias terms; variables
/// that never became circuit inputs are dropped (there is nothing to
/// steer), and several weights on one variable simply stack.
[[nodiscard]] inline prob::Engine::Config engine_config_for(
    const GdLoopConfig& config, const GdProblem& problem) {
  prob::Engine::Config engine_config;
  engine_config.batch = config.batch;
  engine_config.learning_rate = config.learning_rate;
  engine_config.init_std = config.init_std;
  engine_config.policy = config.policy;
  engine_config.fast_sigmoid = config.fast_sigmoid;
  if (config.lit_weights.empty()) return engine_config;
  const std::size_t n_inputs = problem.circuit->n_inputs();
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const cnf::Var var = problem.input_var(i);
    if (var == cnf::kInvalidVar) continue;
    for (const LitWeight& lw : config.lit_weights) {
      if (lw.var != var || lw.weight == 0.0f) continue;
      engine_config.input_biases.push_back(
          {static_cast<std::uint32_t>(i), lw.negated ? 0.0f : 1.0f,
           lw.weight});
    }
  }
  return engine_config;
}

namespace detail {

/// Tracks per-row loss progress between harvest windows for plateau
/// restarts (GdLoopConfig::restart_plateau).  A row "improves" when its
/// loss drops below its best-so-far by more than a small epsilon; after k
/// consecutive windows without improvement the row is flagged for
/// re-seeding.  Solved rows are restart_solved's business: they reset their
/// tracker and are never flagged here.  Trackers reset every round — a
/// fresh random V owes no progress to the previous basin.
class PlateauTracker {
 public:
  PlateauTracker(std::size_t batch, std::size_t n_words, std::size_t k)
      : k_(k), batch_(batch), best_(batch), age_(batch), mask_(n_words) {}

  void begin_round() {
    std::fill(best_.begin(), best_.end(),
              std::numeric_limits<float>::infinity());
    std::fill(age_.begin(), age_.end(), 0u);
  }

  /// Observes the engine's current per-row losses; returns the mask (same
  /// word layout as harden()) of rows stuck for >= k windows.
  const std::vector<std::uint64_t>& observe(
      const prob::Engine& engine, const std::vector<std::uint64_t>& solved) {
    // Loss improvements below this are float jitter, not progress.
    constexpr float kEps = 1e-6f;
    engine.row_losses(losses_);
    std::fill(mask_.begin(), mask_.end(), 0);
    for (std::size_t r = 0; r < batch_; ++r) {
      const std::size_t word = r / 64;
      const std::uint64_t bit = 1ULL << (r % 64);
      if (word < solved.size() && (solved[word] & bit) != 0) {
        best_[r] = std::numeric_limits<float>::infinity();
        age_[r] = 0;
        continue;
      }
      if (losses_[r] < best_[r] - kEps) {
        best_[r] = losses_[r];
        age_[r] = 0;
        continue;
      }
      if (++age_[r] >= k_) {
        mask_[word] |= bit;
        best_[r] = std::numeric_limits<float>::infinity();
        age_[r] = 0;
      }
    }
    return mask_;
  }

 private:
  std::size_t k_;
  std::size_t batch_;
  std::vector<float> best_;
  std::vector<std::uint32_t> age_;
  std::vector<std::uint64_t> mask_;
  std::vector<float> losses_;
};

}  // namespace detail

template <typename Bank>
class RoundRunner {
 public:
  /// Builds the session: an engine over `compiled`, a harvester over
  /// `eval_plan` banking into `bank` and accounting into result(), and the
  /// plateau tracker and amplifier the config asks for.  The runner keeps
  /// its own copies of the problem, the options and the config; `compiled`,
  /// `eval_plan`, `formula`, `bank` and whatever the problem points at are
  /// borrowed and must outlive it.  A kSerial config also runs the harvest
  /// inline on the calling thread: concurrent sessions (service jobs) are
  /// then the parallelism axis, and fanning every harvest out to one shared
  /// pool would only add queue contention.
  RoundRunner(const prob::CompiledCircuit& compiled,
              const circuit::EvalPlan& eval_plan, GdProblem problem,
              const cnf::Formula& formula, RunOptions options,
              GdLoopConfig config, Bank& bank)
      : problem_(std::move(problem)),
        options_(std::move(options)),
        config_(std::move(config)),
        engine_(compiled, engine_config_for(config_, problem_)),
        harvester_(problem_, formula, options_, bank, result_, &eval_plan,
                   /*inline_eval=*/config_.policy == tensor::Policy::kSerial,
                   harvest_mode_for(problem_, config_)) {
    if (config_.restart_plateau > 0) {
      plateau_.emplace(config_.batch, engine_.n_words(),
                       config_.restart_plateau);
    }
    if (config_.amplify.enabled) amplifier_.emplace(config_, harvester_);
  }
  // The harvester and amplifier hold references into this object.
  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// Runs one randomize -> iterate -> harden -> harvest round.
  ///
  /// `checkpoint(iter)` fires after the harvest of iteration `iter` (0 is
  /// the pre-descent collect of the fresh randomization) and is where the
  /// caller records unique counts / progress / streams solutions out; it
  /// must not consume `rng`.  `stop_now()` is polled once per iteration
  /// *after* its checkpoint — returning true ends the round early (target
  /// reached, or the stop token fired).  Inside an iteration the harvester
  /// and amplifier poll the token themselves, at every harvest block and
  /// amplifier base, and the runner polls it before every engine
  /// iteration.  Runs the token does not stop keep the historical
  /// loop shape exactly: the iteration-0 collect has no stop_now() poll
  /// (descent always gets its first iteration), and the round's final
  /// harvest skips the restart draws because a fresh randomize() follows
  /// anyway.
  template <typename Checkpoint, typename Stop>
  void run_round(util::Rng& rng, Checkpoint&& checkpoint, Stop&& stop_now) {
    // Tracing reads the clock only — never the RNG, never the harvest
    // order — so traced and plain rounds are bit-identical.
    const bool traced = telemetry::trace_enabled();
    const std::uint64_t round_begin_ns = traced ? util::monotonic_ns() : 0;
    ++counters_.rounds;
    engine_.randomize(rng);
    if (plateau_) plateau_->begin_round();
    // Whether the diversity objective can steer projections at all: it
    // needs the probe (sampling set + diversity_restart) and at least one
    // set variable that is a live engine input to pin.
    const bool diversity_steers = harvester_.mode().probe_projections &&
                                  !harvester_.projection_slots().empty();
    // Solved rows have been banked; re-seeding them starts fresh descents in
    // the remaining iterations instead of re-converging to the same basin.
    // When the diversity objective steers, it takes over solved rows
    // entirely (mutating them in place instead of redrawing them), so the
    // plain restart is skipped and restarted_rows reads ~0 for such runs —
    // the recycling shows up in diversity_restarted_rows instead.
    auto restart_solved_rows = [&] {
      if (config_.restart_solved && !diversity_steers) {
        counters_.restarted_rows +=
            engine_.rerandomize_rows(harvester_.last_solved(), rng);
      }
    };
    // Plateaued rows follow; only meaningful at mid-round harvests, where
    // the engine's activations come from this round's own forward pass.
    auto restart_plateau_rows = [&] {
      if (plateau_) {
        counters_.plateau_restarted_rows += engine_.rerandomize_rows(
            plateau_->observe(engine_, harvester_.last_solved()), rng);
      }
    };
    // Diversity objective: unsolved rows whose hardened projection is
    // already banked are descending into an already-collected projected
    // class — any solution they reach is a duplicate projection.  Instead
    // of redrawing such rows (a plain restart is just another coupon-
    // collector draw and re-pays full convergence), mutate them in place:
    // keep the row's converged V and pin only its projection inputs toward
    // a bank-checked flip-neighbor of the row's own projection
    // (Harvester::propose_fresh_neighbor).  A one- or two-bit neighbor of
    // a reachable pattern is almost always reachable too, and the rest of
    // the row's V is already deep in a satisfying basin, so the next
    // descent completes in a handful of iterations — the batch walks the
    // projected space word-parallel instead of re-collecting coupons.
    // Solved rows get the same treatment (their V is *exactly* a solution,
    // so a neighbor pin converges fastest of all); restart_solved_rows
    // above cedes them to this pass.  Rows whose whole neighborhood is
    // already banked fall back to a plain re-seed, which keeps the walk
    // ergodic near saturation.  The pass walks rows in word/bit order and
    // draws from the round RNG only, so the stream stays deterministic.
    auto count_rows = [](const std::vector<std::uint64_t>& mask) {
      std::uint64_t n = 0;
      for (const std::uint64_t w : mask) n += std::popcount(w);
      return n;
    };
    auto restart_diversity_rows = [&] {
      if (!harvester_.mode().probe_projections) return;
      const std::vector<std::uint64_t>& flagged =
          harvester_.banked_projection_mask();
      const std::vector<std::uint32_t>& slots = harvester_.projection_slots();
      if (slots.empty()) {
        // No set variable survives as an engine input: nothing to pin, so
        // re-seeding the flagged rows is all the steering available.
        counters_.diversity_restarted_rows += count_rows(flagged);
        engine_.rerandomize_rows(flagged, rng);
        return;
      }
      const std::vector<std::uint64_t>& solved = harvester_.last_solved();
      fallback_mask_.assign(flagged.size(), 0);
      for (std::size_t w = 0; w < flagged.size(); ++w) {
        std::uint64_t mutate = flagged[w];
        if (config_.restart_solved && w < solved.size()) mutate |= solved[w];
        while (mutate != 0) {
          const auto r = static_cast<std::size_t>(std::countr_zero(mutate));
          mutate &= mutate - 1;
          const std::uint64_t* pattern =
              harvester_.propose_fresh_neighbor(w, r, rng, /*tries=*/6);
          if (pattern == nullptr) {
            fallback_mask_[w] |= 1ULL << r;
            continue;
          }
          engine_.pin_row_inputs(w * 64 + r, slots, pattern);
          ++counters_.diversity_restarted_rows;
        }
      }
      counters_.diversity_restarted_rows +=
          engine_.rerandomize_rows(fallback_mask_, rng);
    };
    // Iteration-0 checkpoint: random initialization already satisfies the
    // unconstrained paths (and occasionally everything).
    if (config_.collect_each_iteration) {
      engine_.harden(packed_);
      harvester_.collect(packed_, engine_.n_words(), config_.batch);
      // Amplify before the checkpoint so a service slice streams the
      // amplified uniques with the harvest that seeded them, and the
      // round's wall-clock (EDF slice accounting) includes the work.
      if (amplifier_) amplifier_->amplify();
      checkpoint(0);
      restart_solved_rows();
      restart_diversity_rows();
    }
    for (int iter = 1; iter <= config_.iterations; ++iter) {
      if (options_.stop.stop_requested()) break;
      engine_.run_iteration();
      ++counters_.gd_iterations;
      if (config_.collect_each_iteration || iter == config_.iterations) {
        engine_.harden(packed_);
        harvester_.collect(packed_, engine_.n_words(), config_.batch);
        if (amplifier_) amplifier_->amplify();
        checkpoint(iter);
        if (iter != config_.iterations) {
          restart_solved_rows();
          restart_plateau_rows();
          restart_diversity_rows();
        }
      }
      if (stop_now()) break;
    }
    if (traced) {
      telemetry::TraceSink::global().complete("gd_round", "gd", round_begin_ns,
                                              util::monotonic_ns());
    }
  }

  /// Replaces the token the harvester and amplifier poll (the runner's copy
  /// of RunOptions::stop).  run_gd_loop builds every runner first and hands
  /// each one the budgeted token when its sampling clock starts, so engine
  /// allocation stays outside the budget.
  void set_stop(util::StopToken stop) { options_.stop = std::move(stop); }

  /// The session's accounting (n_valid, n_invalid, stored solutions,
  /// progress); callers may drain solutions and append progress points.
  [[nodiscard]] RunResult& result() { return result_; }

  /// The session's counters over its lifetime.
  [[nodiscard]] LoopCounters counters() const {
    LoopCounters counters = counters_;
    counters.engine_memory_bytes = engine_.memory_bytes();
    counters.rows_validated = harvester_.rows_validated();
    counters.harvest_ms = harvester_.harvest_ms();
    if (amplifier_) {
      counters.amplified_candidates = amplifier_->amplified_candidates();
      counters.amplified_uniques = amplifier_->amplified_uniques();
      counters.amplify_ms = amplifier_->amplify_ms();
    }
    counters.weighted_inputs = engine_.n_weighted_inputs();
    return counters;
  }

 private:
  GdProblem problem_;
  RunOptions options_;
  GdLoopConfig config_;
  RunResult result_;
  prob::Engine engine_;
  Harvester<Bank> harvester_;
  std::optional<Amplifier<Bank>> amplifier_;
  std::optional<detail::PlateauTracker> plateau_;
  std::vector<std::uint64_t> packed_;
  /// Diversity rows whose banked neighborhood exhausted the proposal tries;
  /// they take a plain re-seed instead (see restart_diversity_rows).
  std::vector<std::uint64_t> fallback_mask_;
  /// Counts the runner keeps itself (rounds, iterations, restarts); the
  /// rest of counters() is read from the engine, harvester and amplifier.
  LoopCounters counters_;
};

}  // namespace hts::sampler
