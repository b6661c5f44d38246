#include "baselines/walksat_sampler.hpp"

#include "core/unique_bank.hpp"
#include "util/timer.hpp"

namespace hts::baselines {

/// Flip budget of one local-search restart.
constexpr std::uint64_t kMaxFlipsPerRestart = 200000;

sampler::RunResult WalkSatSampler::run(const cnf::Formula& formula,
                                       const sampler::RunOptions& options) {
  sampler::require_run_bound(options);
  sampler::RunResult result;
  result.sampler_name = name();

  solver::WalkSatConfig ws_config;
  ws_config.max_flips = kMaxFlipsPerRestart;
  ws_config.seed = options.seed ^ 0x3a1c5ULL;
  solver::WalkSat walksat(formula, ws_config);

  const util::StopToken stop = options.stop.with_budget(options.budget_ms);
  util::Timer timer;
  sampler::UniqueBank bank(formula.n_vars());

  while (!stop.stop_requested()) {
    if (options.min_solutions > 0 && bank.size() >= options.min_solutions) break;
    const auto model = walksat.search(stop);
    if (!model.has_value()) continue;  // flip budget exhausted, or stopped
    ++result.n_valid;
    if (options.verify_against_cnf && !formula.satisfied_by(*model)) {
      ++result.n_invalid;
    }
    const bool is_new = bank.insert_bits(*model);
    if ((is_new || options.store_all_draws) &&
        result.solutions.size() < options.store_limit) {
      result.solutions.push_back(*model);
    }
    if (is_new) {
      result.progress.push_back(
          sampler::ProgressPoint{timer.milliseconds(), bank.size()});
    }
  }

  result.n_unique = bank.size();
  result.elapsed_ms = timer.milliseconds();
  result.timed_out =
      options.min_solutions > 0 && result.n_unique < options.min_solutions;
  return result;
}

}  // namespace hts::baselines
