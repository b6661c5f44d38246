#include "core/gradient_sampler.hpp"

#include "core/gd_loop.hpp"
#include "util/timer.hpp"

namespace hts::sampler {

RunResult GradientSampler::run(const cnf::Formula& formula,
                               const RunOptions& options) {
  RunResult result;
  result.sampler_name = name();
  extras_ = GdLoopExtras{};

  util::Timer setup_timer;
  const transform::Result problem = transform::transform_cnf(formula);
  transform_stats_ = problem.stats;
  const double setup_ms = setup_timer.milliseconds();
  if (problem.proven_unsat) {
    result.proven_unsat = true;
    result.setup_ms = setup_ms;
    return result;
  }

  GdProblem gd_problem;
  gd_problem.circuit = &problem.circuit;
  gd_problem.var_signal = &problem.var_signal;
  gd_problem.input_vars = &problem.input_vars;
  if (formula.has_sampling_set()) {
    // Copied by value (the problem owns its set); already normalized by
    // Formula::set_sampling_set.
    gd_problem.sampling_set = formula.sampling_set();
  }

  result = run_gd_loop(gd_problem, formula, options, config_, &extras_);
  result.sampler_name = name();
  result.setup_ms = setup_ms;
  return result;
}

}  // namespace hts::sampler
