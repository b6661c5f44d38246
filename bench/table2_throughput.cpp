// Reproduces Table II: unique-solution throughput of the gradient sampler
// vs UNIGEN3-like, CMSGEN-like and DIFFSAMPLER-like baselines on the 14
// representative instances, each tasked with >= HTS_BENCH_MIN_SOLUTIONS
// unique solutions within HTS_BENCH_BUDGET_MS.
//
// Columns mirror the paper: instance, #primary inputs / outputs recovered by
// the transformation, CNF size, our throughput with the speedup over the
// best baseline, then the three baselines' throughputs.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

int bench_main(int /*argc*/, char** /*argv*/) {
  using namespace hts;
  const bench::BenchEnv env;

  std::printf("=== Table II: unique-solution throughput ===\n");
  std::printf("budget %.0f ms per sampler-instance, target %zu unique solutions, "
              "scale %.2f\n\n",
              env.budget_ms, env.min_solutions, env.scale);

  util::Table table({"Instance", "#PI", "#PO", "Vars", "Clauses",
                     "This work (Speedup)", "UniGen3-like", "CMSGen-like",
                     "DiffSampler-like"});

  for (const std::string& name : benchgen::table2_names()) {
    std::fprintf(stderr, "[table2] %s ...\n", name.c_str());
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    const auto& formula = instance.formula;

    auto ours = bench::make_ours(env, formula.n_vars());
    const sampler::RunResult our_result = ours->run(formula, bench::run_options(env));
    const auto& tstats = ours->transform_stats();

    std::vector<std::string> row{
        name,
        std::to_string(tstats.has_value() ? tstats->n_primary_inputs : 0),
        std::to_string(tstats.has_value() ? tstats->n_primary_outputs : 0),
        std::to_string(formula.n_vars()),
        std::to_string(formula.n_clauses()),
    };

    double best_baseline = 0.0;
    std::vector<std::string> baseline_cells;
    for (const auto& baseline : bench::make_baselines(env, formula.n_vars())) {
      const sampler::RunResult result =
          baseline->run(formula, bench::run_options(env));
      baseline_cells.push_back(bench::throughput_cell(result, env.min_solutions));
      best_baseline = std::max(best_baseline, result.throughput());
    }

    std::string ours_cell = bench::throughput_cell(our_result, env.min_solutions);
    if (ours_cell != "TO" && best_baseline > 0.0) {
      ours_cell +=
          " (" + util::format_speedup(our_result.throughput() / best_baseline) + ")";
    }
    row.push_back(ours_cell);
    for (auto& cell : baseline_cells) row.push_back(std::move(cell));
    table.add_row(std::move(row));
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("CSV:\n%s", table.to_csv().c_str());
  std::printf("\nPaper reference (V100 + 2h budget): speedups 33.6x-523.6x over the\n"
              "best baseline; UniGen3 0.2-95 sol/s; CMSGen TOs on Prod-20/32;\n"
              "DiffSampler TOs on s15850a_* and Prod-*.\n");
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
