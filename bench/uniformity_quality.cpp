// Extension bench (beyond the paper's figures): distribution quality of all
// samplers on exactly-countable instances.  Quantifies the
// throughput-vs-uniformity trade the paper's related-work section discusses:
// UniGen-like should score flattest (lowest KL), the gradient sampler and
// CMSGen-like trade uniformity for speed.
//
// The gradient sampler runs twice — flip amplification off and on — so the
// bench JSON records how much uniformity the word-parallel amplifier costs
// (mutants cluster around harvested bases, so some skew is expected; the
// trajectory tracks that it stays bounded while throughput multiplies).
//
// Accepts `--json <path>` to mirror the result rows machine-readably (see
// bench_common.hpp's JsonWriter).

#include <cstdio>
#include <memory>
#include <string>

#include "analysis/uniformity.hpp"
#include "baselines/walksat_sampler.hpp"
#include "bench_common.hpp"
#include "cnf/dimacs.hpp"

int bench_main(int argc, char** argv) {
  using namespace hts;
  const bench::BenchEnv env;
  bench::JsonWriter json(argc, argv, "uniformity_quality");
  const auto n_draws =
      static_cast<std::size_t>(util::env_int("HTS_BENCH_UNIFORMITY_DRAWS", 20000));

  std::printf("=== Extension: sampler distribution quality ===\n");
  std::printf("exactly-countable instances; %zu draws per sampler (duplicates "
              "kept)\n\n", n_draws);

  // Small, countable instances with interesting structure.
  struct Problem {
    const char* name;
    cnf::Formula formula;
  };
  std::vector<Problem> problems;
  problems.push_back(
      {"or2-free", cnf::parse_dimacs_string("p cnf 6 2\n1 2 0\n3 4 0\n")});
  problems.push_back(
      {"xor-chain", cnf::parse_dimacs_string(
                        "p cnf 6 8\n1 2 3 0\n1 -2 -3 0\n-1 2 -3 0\n-1 -2 3 0\n"
                        "4 5 6 0\n4 -5 -6 0\n-4 5 -6 0\n-4 -5 6 0\n")});
  problems.push_back(
      {"mux-cnf", cnf::parse_dimacs_string(
                      "p cnf 5 5\n-1 -2 4 0\n-1 2 -4 0\n1 -3 4 0\n1 3 -4 0\n"
                      "4 5 0\n")});

  util::Table table({"Instance", "Sampler", "Models", "Draws", "Distinct",
                     "Coverage", "ChiSq/df", "KL(nats)", "min/max"});

  for (const Problem& problem : problems) {
    struct Entry {
      std::unique_ptr<sampler::Sampler> sampler;
      bool amplify = false;
    };
    std::vector<Entry> entries;
    {
      sampler::GradientConfig config;
      config.batch = 4096;
      entries.push_back(
          {std::make_unique<sampler::GradientSampler>(config), false});
      config.amplify.enabled = true;
      entries.push_back(
          {std::make_unique<sampler::GradientSampler>(config), true});
    }
    entries.push_back({std::make_unique<baselines::UniGenLike>(), false});
    entries.push_back({std::make_unique<baselines::CmsGenLike>(), false});
    {
      baselines::DiffSamplerConfig config;
      config.batch = 4096;
      entries.push_back({std::make_unique<baselines::DiffSampler>(config), false});
    }
    entries.push_back({std::make_unique<baselines::WalkSatSampler>(), false});

    for (const Entry& entry : entries) {
      const std::string label =
          entry.sampler->name() + (entry.amplify ? "+amp" : "");
      sampler::RunOptions options;
      options.min_solutions = 0;  // run to the budget, gathering draws
      options.budget_ms = env.budget_ms;
      options.store_limit = n_draws;
      options.store_all_draws = true;
      options.seed = env.seed;
      const sampler::RunResult result =
          entry.sampler->run(problem.formula, options);
      const analysis::UniformityReport report =
          analysis::analyze_uniformity(problem.formula, result.solutions);
      const double df = report.n_models > 1
                            ? static_cast<double>(report.n_models - 1)
                            : 1.0;
      table.add_row({problem.name, label,
                     std::to_string(report.n_models),
                     std::to_string(report.n_draws),
                     std::to_string(report.n_distinct),
                     util::format_fixed(report.coverage, 3),
                     util::format_fixed(report.chi_square / df, 2),
                     util::format_fixed(report.kl_divergence, 4),
                     util::format_fixed(report.min_max_ratio, 3)});
      bench::JsonRecord record;
      record.field("instance", problem.name)
          .field("sampler", label)
          .field("amplify", entry.amplify)
          .field("n_models", report.n_models)
          .field("draws", report.n_draws)
          .field("distinct", report.n_distinct)
          .field("coverage", report.coverage)
          .field("chi_square_per_df", report.chi_square / df)
          .field("kl_nats", report.kl_divergence)
          .field("min_max_ratio", report.min_max_ratio);
      json.add(record);
    }
  }

  std::printf("%s\n", table.to_string().c_str());

  // --- projected-space quality ------------------------------------------
  // Each instance gets a 'c ind'-style sampling set; draws are scored over
  // the *projected* space (distinct classes counted by BDD quantification).
  // The gradient sampler runs with projected dedup (the default once the
  // formula declares a set) and again with the diversity objective, so the
  // JSON tracks what diversity restarts buy in projected coverage.
  struct ProjectedCase {
    const char* instance;
    std::vector<cnf::Var> sampling_set;
  };
  const std::vector<ProjectedCase> projected_cases = {
      {"or2-free", {0, 1, 2}},
      {"xor-chain", {0, 1, 3}},
      {"mux-cnf", {0, 3, 4}},
  };
  util::Table proj_table({"Instance", "Mode", "Classes", "Draws", "Distinct",
                          "Coverage", "ChiSq/df", "KL(nats)", "min/max"});
  for (const ProjectedCase& pc : projected_cases) {
    const Problem* base = nullptr;
    for (const Problem& problem : problems) {
      if (std::string(problem.name) == pc.instance) base = &problem;
    }
    if (base == nullptr) continue;
    cnf::Formula formula = base->formula;
    formula.set_sampling_set(pc.sampling_set);

    for (const bool diversity : {false, true}) {
      sampler::GradientConfig config;
      config.batch = 4096;
      config.diversity_restart = diversity;
      sampler::GradientSampler grad(config);
      sampler::RunOptions options;
      options.min_solutions = 0;
      options.budget_ms = env.budget_ms;
      options.store_limit = n_draws;
      options.store_all_draws = true;
      options.seed = env.seed;
      const sampler::RunResult result = grad.run(formula, options);
      const analysis::UniformityReport report =
          analysis::analyze_projected_uniformity(formula, pc.sampling_set,
                                                 result.solutions);
      const double df = report.n_models > 1
                            ? static_cast<double>(report.n_models - 1)
                            : 1.0;
      const std::string mode_label =
          diversity ? "projected+div" : "projected";
      proj_table.add_row({pc.instance, mode_label,
                          std::to_string(report.n_models),
                          std::to_string(report.n_draws),
                          std::to_string(report.n_distinct),
                          util::format_fixed(report.coverage, 3),
                          util::format_fixed(report.chi_square / df, 2),
                          util::format_fixed(report.kl_divergence, 4),
                          util::format_fixed(report.min_max_ratio, 3)});
      bench::JsonRecord record;
      record.field("mode", "projected")
          .field("instance", pc.instance)
          .field("sampler", "HTS-GD")
          .field("diversity", diversity)
          .field("set_size", pc.sampling_set.size())
          .field("n_models", report.n_models)
          .field("draws", report.n_draws)
          .field("distinct", report.n_distinct)
          .field("n_unique", result.n_unique)
          .field("coverage", report.coverage)
          .field("chi_square_per_df", report.chi_square / df)
          .field("kl_nats", report.kl_divergence)
          .field("min_max_ratio", report.min_max_ratio)
          .field("n_invalid", report.n_invalid);
      json.add(record);
    }
  }
  std::printf("%s\n", proj_table.to_string().c_str());

  std::printf("Reading: chi-square/df near 1 and KL near 0 indicate near-uniform\n"
              "sampling.  Expected ordering: UniGen-like flattest; the gradient\n"
              "sampler and CMSGen-like trade uniformity for raw throughput —\n"
              "the trade-off the paper's related-work section describes.  The\n"
              "amplified gradient run shows what the flip mutants cost on top.\n");
  if (!json.write(env)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
