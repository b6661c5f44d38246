#include "baselines/diff_sampler.hpp"

#include "util/timer.hpp"

namespace hts::baselines {

FlatProblem build_flat_problem(const cnf::Formula& formula) {
  FlatProblem problem;
  problem.var_signal.resize(formula.n_vars());
  // Inputs: one per original variable.
  for (cnf::Var v = 0; v < formula.n_vars(); ++v) {
    problem.var_signal[v] =
        problem.circuit.add_input("x" + std::to_string(v + 1));
  }
  // Shared inverters per variable (built lazily).
  std::vector<circuit::SignalId> negated(formula.n_vars(), circuit::kNoSignal);
  auto literal_signal = [&](cnf::Lit lit) {
    if (!lit.negated()) return problem.var_signal[lit.var()];
    circuit::SignalId& slot = negated[lit.var()];
    if (slot == circuit::kNoSignal) {
      slot = problem.circuit.add_gate(circuit::GateType::kNot,
                                      {problem.var_signal[lit.var()]});
    }
    return slot;
  };
  for (const cnf::Clause& clause : formula.clauses()) {
    std::vector<circuit::SignalId> fanins;
    fanins.reserve(clause.size());
    for (const cnf::Lit lit : clause) fanins.push_back(literal_signal(lit));
    const circuit::SignalId out =
        clause.size() == 1
            ? fanins[0]
            : problem.circuit.add_gate(circuit::GateType::kOr, std::move(fanins));
    problem.circuit.add_output(out, true);
  }
  return problem;
}

sampler::RunResult DiffSampler::run(const cnf::Formula& formula,
                                    const sampler::RunOptions& options) {
  // run_gd_loop checks too, but only after the flat problem is built.
  sampler::require_run_bound(options, config_.max_rounds > 0);
  sampler::validate_config(config_, formula.n_vars());
  util::Timer setup_timer;
  const FlatProblem problem = build_flat_problem(formula);
  const double setup_ms = setup_timer.milliseconds();

  sampler::GdProblem gd_problem;
  gd_problem.circuit = &problem.circuit;
  gd_problem.var_signal = &problem.var_signal;
  // Flat problem: input i IS variable i, so the identity default of
  // GdProblem::input_vars applies.
  if (formula.has_sampling_set()) {
    // Copied by value (the problem owns its set); already normalized by
    // Formula::set_sampling_set.
    gd_problem.sampling_set = formula.sampling_set();
  }

  sampler::RunResult result =
      run_gd_loop(gd_problem, formula, options, config_, nullptr);
  result.sampler_name = name();
  result.setup_ms = setup_ms;
  return result;
}

}  // namespace hts::baselines
