#pragma once

// Common SAT-sampler interface and result accounting.
//
// Every sampler in the repo (the paper's gradient sampler and the three
// baselines) implements Sampler::run with the same contract as the paper's
// evaluation: generate satisfying assignments of the input CNF until at
// least min_solutions *unique* ones are found or the time budget expires,
// and report unique-solution throughput.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cnf/formula.hpp"
#include "util/stop_token.hpp"

namespace hts::sampler {

/// How long a run goes on, and what it keeps.  A run needs a bound that
/// ends it on every formula: budget_ms > 0, a `stop` token that can fire,
/// or, for the gradient-descent samplers, GdLoopConfig::max_rounds > 0.
/// min_solutions alone is no such bound (it ends a run only when the
/// formula has that many models), so every sampler rejects a run without
/// one through require_run_bound.
struct RunOptions {
  /// Stop once this many unique solutions are collected (the paper uses
  /// 1000).  0 means "run until the budget expires".
  std::size_t min_solutions = 1000;
  /// Wall-clock budget in milliseconds (the paper's timeout is 2 h; the
  /// bench harnesses scale this down).  <= 0 disables it.  A sampler adds
  /// it to `stop` as a deadline when its sampling clock starts, so the
  /// budget and a cancel are one signal polled at the same points.
  double budget_ms = 2000.0;
  std::uint64_t seed = 0x5eed;
  /// Keep at most this many full assignments in RunResult::solutions
  /// (uniqueness is still tracked beyond it).
  std::size_t store_limit = 0;
  /// Store every valid draw (duplicates included) instead of only new unique
  /// solutions — the raw stream distribution-quality analysis needs
  /// (hts::analysis).  Still bounded by store_limit.
  bool store_all_draws = false;
  /// Re-check every emitted solution against the original CNF and count
  /// failures in n_invalid (all samplers must keep this at 0; enabled by
  /// tests, costs one formula evaluation per solution).
  bool verify_against_cnf = false;
  /// Cooperative cancellation: samplers poll this token, with budget_ms
  /// added, at their natural yield points (GD round and iteration
  /// boundaries, harvest blocks, amplifier bases, solver decisions) and
  /// return partial results once it fires.  The default token never fires.
  /// A service job passes its own token here: its abort source (client
  /// cancel, shutdown) plus its deadline.
  util::StopToken stop;
};

/// Throws std::invalid_argument unless `options` (or the caller's round
/// cap, `round_capped`) bounds the run on every formula; see RunOptions.
/// Samplers call it before any set-up work.
inline void require_run_bound(const RunOptions& options,
                              bool round_capped = false) {
  if (round_capped ||
      options.stop.with_budget(options.budget_ms).stop_possible()) {
    return;
  }
  throw std::invalid_argument(
      "run has no bound that ends it on every formula: set budget_ms > 0, "
      "pass a stop token, or cap the rounds");
}

struct ProgressPoint {
  double elapsed_ms;
  std::size_t n_unique;
};

struct RunResult {
  std::string sampler_name;
  std::size_t n_unique = 0;
  std::size_t n_valid = 0;    // valid solutions incl. duplicates
  std::size_t n_invalid = 0;  // only populated under verify_against_cnf
  double elapsed_ms = 0.0;
  /// One-off preprocessing (e.g. the CNF->circuit transformation) excluded
  /// from elapsed_ms, reported separately like the paper's Fig. 4 (right).
  double setup_ms = 0.0;
  bool timed_out = false;
  bool proven_unsat = false;

  /// Unique solutions per second (the paper's Table II metric).
  [[nodiscard]] double throughput() const {
    return elapsed_ms <= 0.0 ? 0.0
                             : static_cast<double>(n_unique) / (elapsed_ms / 1e3);
  }

  /// (elapsed, uniques) checkpoints, for Fig. 2 / Fig. 3 style curves.
  std::vector<ProgressPoint> progress;

  /// Up to RunOptions::store_limit full assignments over original variables.
  std::vector<cnf::Assignment> solutions;
};

class Sampler {
 public:
  virtual ~Sampler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual RunResult run(const cnf::Formula& formula,
                                      const RunOptions& options) = 0;
};

}  // namespace hts::sampler
