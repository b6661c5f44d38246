// verify_cli: lints a CNF's compiled artifacts with the plan-IR verifier.
//
//   ./verify_cli <instance.cnf | benchgen-name>
//
// An argument naming an existing file is parsed as DIMACS and transformed
// (Algorithm 1) into a circuit; anything else is treated as a benchgen
// family name ("Prod-8", "or-50-10-7-UC-10", ...).  The circuit is then
// compiled every way the samplers compile it — raw tape, optimized tape,
// optimized constrained-cone tape, and the word-parallel EvalPlan — and
// each artifact runs through the full verifier rule set.  Exit status 0
// means every plan is well-formed; any diagnostic prints and fails the run,
// so the binary doubles as a CI lint step (see verify_cli_smoke in
// CMakeLists.txt).

#include <cstdio>
#include <filesystem>
#include <string>

#include "benchgen/families.hpp"
#include "circuit/eval_plan.hpp"
#include "cnf/dimacs.hpp"
#include "prob/compiled.hpp"
#include "transform/transform.hpp"
#include "verify/plan_verifier.hpp"

namespace {

using namespace hts;

/// Prints one artifact's plan shape and verdict; true when it verified.
template <typename Op>
bool print_report(const char* label, std::size_t n_slots,
                  const util::LevelPlan<Op>& plan,
                  const verify::Report& report) {
  std::printf("%-22s %6zu ops  %5zu slots  %4zu levels  %5zu runs : %s\n",
              label, plan.n_ops(), n_slots, plan.n_levels(), plan.n_runs(),
              report.ok() ? "ok" : "FAILED");
  if (!report.ok()) std::printf("%s\n", report.to_string().c_str());
  return report.ok();
}

bool report_exec(const char* label, const prob::CompiledCircuit& compiled) {
  return print_report(label, compiled.n_slots(), compiled.plan(),
                      verify::verify_exec_plan(compiled));
}

bool report_eval(const char* label, const circuit::EvalPlan& plan) {
  return print_report(label, plan.n_slots(), plan.plan(),
                      verify::verify_eval_plan(plan));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <instance.cnf | benchgen-name>\n",
                 argv[0]);
    return 2;
  }
  const std::string target = argv[1];

  // The constructor self-check hooks would abort on the first violation;
  // keep them off so this tool reports *all* diagnostics and exits cleanly.
  verify::set_verify_plans(false);

  circuit::Circuit circuit;
  if (std::filesystem::exists(target)) {
    const cnf::Formula formula = cnf::parse_dimacs_file(target);
    std::printf("loaded %s: %u variables, %zu clauses\n", target.c_str(),
                formula.n_vars(), formula.n_clauses());
    transform::Result problem = transform::transform_cnf(formula);
    std::printf("transformed: %zu inputs, %zu outputs, %zu signals\n",
                problem.circuit.inputs().size(),
                problem.circuit.outputs().size(),
                static_cast<std::size_t>(problem.circuit.n_signals()));
    circuit = std::move(problem.circuit);
  } else {
    benchgen::Instance instance = benchgen::make_instance(target);
    std::printf("generated %s (%s family): %zu inputs, %zu outputs, %zu "
                "signals\n",
                instance.name.c_str(), instance.family.c_str(),
                instance.circuit.inputs().size(),
                instance.circuit.outputs().size(),
                static_cast<std::size_t>(instance.circuit.n_signals()));
    circuit = std::move(instance.circuit);
  }

  using Options = prob::CompiledCircuit::Options;
  bool ok = true;
  ok = report_exec("tape (raw)",
                   prob::CompiledCircuit(circuit, Options{false, false})) &&
       ok;
  ok = report_exec("tape (optimized)",
                   prob::CompiledCircuit(circuit, Options{false, true})) &&
       ok;
  ok = report_exec("tape (cone, optimized)",
                   prob::CompiledCircuit(circuit, Options{true, true})) &&
       ok;
  ok = report_eval("eval plan (word)", circuit::EvalPlan(circuit)) && ok;

  std::printf("%s\n", ok ? "all plans verified" : "plan verification FAILED");
  return ok ? 0 : 1;
}
