#include "baselines/cmsgen_like.hpp"

#include "core/unique_bank.hpp"
#include "util/timer.hpp"

namespace hts::baselines {

/// Fraction of branching decisions taken at random.
constexpr double kRandomDecisionFreq = 0.15;

sampler::RunResult CmsGenLike::run(const cnf::Formula& formula,
                                   const sampler::RunOptions& options) {
  sampler::RunResult result;
  result.sampler_name = name();

  util::Timer setup_timer;
  solver::CdclConfig solver_config;
  solver_config.polarity = solver::CdclConfig::Polarity::kRandom;
  solver_config.random_decision_freq = kRandomDecisionFreq;
  solver_config.seed = options.seed;
  solver::CdclSolver solver(solver_config);
  solver.add_formula(formula);
  result.setup_ms = setup_timer.milliseconds();

  util::Rng rng(options.seed ^ 0xc35e6e5aULL);
  const util::StopToken stop = options.stop.with_budget(options.budget_ms);
  util::Timer timer;
  sampler::UniqueBank bank(formula.n_vars());

  while (!stop.stop_requested()) {
    if (options.min_solutions > 0 && bank.size() >= options.min_solutions) break;
    const solver::Status status = solver.solve({}, stop);
    if (status == solver::Status::kUnsat) {
      result.proven_unsat = bank.size() == 0 && result.n_valid == 0;
      break;
    }
    if (status == solver::Status::kUnknown) break;  // stopped mid-search
    const cnf::Assignment& model = solver.model();
    ++result.n_valid;
    if (options.verify_against_cnf && !formula.satisfied_by(model)) {
      ++result.n_invalid;
    }
    const bool is_new = bank.insert_bits(model);
    if (is_new || options.store_all_draws) {
      if (result.solutions.size() < options.store_limit) {
        result.solutions.push_back(model);
      }
    }
    if (is_new) {
      result.progress.push_back(
          sampler::ProgressPoint{timer.milliseconds(), bank.size()});
    }
    // Restart-with-fresh-randomization after every solution is what turns
    // the solver into a (non-uniform but diverse) sampler.
    solver.reshuffle(rng.next_u64());
  }

  result.n_unique = bank.size();
  result.elapsed_ms = timer.milliseconds();
  result.timed_out = options.min_solutions > 0 && result.n_unique < options.min_solutions;
  return result;
}

}  // namespace hts::baselines
