// Extension ablations for the design choices DESIGN.md calls out, beyond the
// paper's own Fig. 4:
//   (a) hyperparameters — learning-rate and init-std sweeps around the
//       paper's lr=10 setting (unique yield of a single fixed-size round);
//   (b) SatELite-style preprocessing ahead of the CDCL baselines (formula
//       shrinkage and its effect on CMSGen-like throughput).

#include <cstdio>

#include "bench_common.hpp"
#include "solver/preprocess.hpp"

namespace {

using namespace hts;

/// Unique yield of one fixed round at the given GD hyperparameters.
std::size_t yield_one_round(const cnf::Formula& formula, float lr, float init_std,
                            std::size_t batch, std::uint64_t seed) {
  sampler::GradientConfig config;
  config.batch = batch;
  config.learning_rate = lr;
  config.init_std = init_std;
  config.max_rounds = 1;
  sampler::GradientSampler sampler(config);
  sampler::RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = -1.0;
  options.seed = seed;
  return sampler.run(formula, options).n_unique;
}

}  // namespace

int main() {
  using namespace hts;
  const bench::BenchEnv env;
  const std::size_t batch = 16384;

  std::printf("=== Extension ablations (scale %.2f) ===\n\n", env.scale);

  // ---------------------------------------------------------------- (a) ----
  std::printf("--- (a) learning-rate sweep, one round of batch %zu ---\n", batch);
  util::Table lr_table({"Instance", "lr=0.5", "lr=2", "lr=10 (paper)", "lr=50"});
  for (const std::string& name : {std::string("or-100-20-8-UC-10"),
                                  std::string("90-10-10-q")}) {
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    std::vector<std::string> row{name};
    for (const float lr : {0.5f, 2.0f, 10.0f, 50.0f}) {
      row.push_back(std::to_string(
          yield_one_round(instance.formula, lr, 2.0f, batch, env.seed)));
    }
    lr_table.add_row(std::move(row));
  }
  std::printf("%s\n", lr_table.to_string().c_str());

  std::printf("--- (a') init-std sweep at lr=10 ---\n");
  util::Table std_table({"Instance", "std=0.5", "std=1", "std=2 (default)", "std=4"});
  for (const std::string& name : {std::string("or-100-20-8-UC-10"),
                                  std::string("90-10-10-q")}) {
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    std::vector<std::string> row{name};
    for (const float init_std : {0.5f, 1.0f, 2.0f, 4.0f}) {
      row.push_back(std::to_string(
          yield_one_round(instance.formula, 10.0f, init_std, batch, env.seed)));
    }
    std_table.add_row(std::move(row));
  }
  std::printf("%s\n", std_table.to_string().c_str());

  // ---------------------------------------------------------------- (b) ----
  std::printf("--- (b) SatELite-style preprocessing before the CDCL baseline ---\n");
  util::Table pp_table({"Instance", "Vars", "Clauses", "Clauses after",
                        "Eliminated", "CMSGen sol/s", "after preprocess"});
  for (const std::string& name : {std::string("or-100-20-8-UC-10"),
                                  std::string("75-10-1-q")}) {
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    cnf::Formula simplified = instance.formula;
    solver::Preprocessor pp;
    const bool sat = pp.simplify(simplified);

    baselines::CmsGenLike cmsgen;
    sampler::RunOptions options = bench::run_options(env);
    const double before = cmsgen.run(instance.formula, options).throughput();
    const double after = sat ? cmsgen.run(simplified, options).throughput() : 0.0;
    pp_table.add_row({name, std::to_string(instance.formula.n_vars()),
                      std::to_string(instance.formula.n_clauses()),
                      std::to_string(simplified.n_clauses()),
                      std::to_string(pp.stats().vars_eliminated),
                      util::format_grouped(before, 1),
                      util::format_grouped(after, 1)});
  }
  std::printf("%s\n", pp_table.to_string().c_str());
  std::printf("(preprocessed throughput counts solutions of the simplified\n"
              "formula; extend_model maps each back to the original space.)\n");
  return 0;
}
