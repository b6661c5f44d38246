#include "core/circuit_sampler.hpp"

namespace hts::sampler {

CircuitSampler::CircuitSampler(const circuit::Circuit& circuit,
                               CircuitSamplerConfig config)
    : circuit_(&circuit), config_(config) {
  // Map pseudo-variable i to circuit input i so gd_loop's projection yields
  // an input-indexed assignment.
  input_signals_ = circuit.inputs();
  empty_formula_.ensure_vars(static_cast<cnf::Var>(input_signals_.size()));
}

RunResult CircuitSampler::run(const RunOptions& options) {
  GdProblem problem;
  problem.circuit = circuit_;
  problem.var_signal = &input_signals_;
  // Wire the configured sampling set (input positions = pseudo-variables)
  // into the problem so the amplifier's flip support and projected dedup
  // see it — historically this path dropped the set on the floor.
  problem.sampling_set =
      normalize_sampling_set(config_.sampling_set, input_signals_.size());

  // verify_against_cnf is meaningless here (there is no CNF); the loop
  // already verifies every row against the circuit's output constraints.
  RunOptions effective = options;
  effective.verify_against_cnf = false;

  RunResult result =
      run_gd_loop(problem, empty_formula_, effective, config_, &extras_);
  result.sampler_name = "HTS-GD(circuit)";
  return result;
}

}  // namespace hts::sampler
