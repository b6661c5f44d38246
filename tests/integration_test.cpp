// End-to-end pipeline tests: generate a benchmark instance, round-trip it
// through DIMACS, transform, sample with every sampler, and cross-check all
// emitted solutions against the original CNF and against exact model counts
// where enumerable.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/cmsgen_like.hpp"
#include "baselines/diff_sampler.hpp"
#include "baselines/unigen_like.hpp"
#include "baselines/walksat_sampler.hpp"
#include "benchgen/families.hpp"
#include "cnf/dimacs.hpp"
#include "core/gradient_sampler.hpp"
#include "solver/cdcl.hpp"
#include "transform/transform.hpp"

namespace hts {
namespace {

benchgen::GenOptions tiny_scale() {
  benchgen::GenOptions options;
  options.scale = 0.02;
  return options;
}

sampler::RunOptions options_for(std::size_t min_solutions, double budget_ms) {
  sampler::RunOptions options;
  options.min_solutions = min_solutions;
  options.budget_ms = budget_ms;
  options.store_limit = 256;
  options.verify_against_cnf = true;
  options.seed = 7;
  return options;
}

sampler::GradientConfig gd_config() {
  sampler::GradientConfig config;
  config.batch = 512;
  config.policy = tensor::Policy::kDataParallel;
  return config;
}

class FamilyPipeline : public ::testing::TestWithParam<const char*> {};

TEST_P(FamilyPipeline, GenerateTransformSampleVerify) {
  const benchgen::Instance instance =
      benchgen::make_instance(GetParam(), tiny_scale());

  // DIMACS round trip first: the pipeline must survive serialization.
  const cnf::Formula formula = cnf::parse_dimacs_string(
      cnf::to_dimacs_string(instance.formula, instance.name));
  ASSERT_EQ(formula.n_clauses(), instance.formula.n_clauses());

  sampler::GradientSampler sampler(gd_config());
  const sampler::RunResult result = sampler.run(formula, options_for(20, 8000.0));
  EXPECT_GE(result.n_unique, 20u) << instance.name;
  EXPECT_EQ(result.n_invalid, 0u) << instance.name;
  for (const cnf::Assignment& solution : result.solutions) {
    EXPECT_TRUE(formula.satisfied_by(solution));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyPipeline,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(Integration, AllSamplersAgreeOnValidity) {
  const benchgen::Instance instance =
      benchgen::make_instance("or-50-10-7-UC-10", tiny_scale());

  std::vector<std::unique_ptr<sampler::Sampler>> samplers;
  samplers.push_back(std::make_unique<sampler::GradientSampler>(gd_config()));
  samplers.push_back(std::make_unique<baselines::CmsGenLike>());
  samplers.push_back(std::make_unique<baselines::UniGenLike>());
  {
    baselines::DiffSamplerConfig config;
    config.batch = 512;
    samplers.push_back(std::make_unique<baselines::DiffSampler>(config));
  }
  samplers.push_back(std::make_unique<baselines::WalkSatSampler>());

  for (const auto& s : samplers) {
    const sampler::RunResult result =
        s->run(instance.formula, options_for(5, 6000.0));
    EXPECT_GE(result.n_unique, 5u) << s->name();
    EXPECT_EQ(result.n_invalid, 0u) << s->name();
  }
}

TEST(Integration, GradientSamplerMatchesSolverOnSatisfiability) {
  // Across a batch of small random instances: whenever CDCL says SAT the
  // gradient sampler should find at least one solution quickly (these are
  // easy instances), and when UNSAT it must find none.
  util::Rng rng(31415);
  int checked_sat = 0;
  int found_sat = 0;
  for (int trial = 0; trial < 12; ++trial) {
    cnf::Formula f(10);
    const std::size_t n_clauses = 22 + rng.next_below(16);
    for (std::size_t c = 0; c < n_clauses; ++c) {
      cnf::Clause clause;
      while (clause.size() < 3) {
        const cnf::Lit lit(static_cast<cnf::Var>(rng.next_below(10)),
                           rng.next_bool());
        bool dup = false;
        for (const cnf::Lit l : clause) dup |= l.var() == lit.var();
        if (!dup) clause.push_back(lit);
      }
      f.add_clause(clause);
    }
    const bool is_sat = solver::solve_formula(f) == solver::Status::kSat;
    sampler::GradientSampler sampler(gd_config());
    const sampler::RunResult result = sampler.run(f, options_for(1, 1500.0));
    if (is_sat) {
      ++checked_sat;
      if (result.n_unique >= 1) ++found_sat;
      EXPECT_EQ(result.n_invalid, 0u);
    } else {
      EXPECT_EQ(result.n_unique, 0u) << "UNSAT instance produced a solution";
    }
  }
  // GD is incomplete, but on 10-var instances it should almost always land.
  if (checked_sat > 0) {
    EXPECT_GE(found_sat * 10, checked_sat * 8)
        << found_sat << "/" << checked_sat;
  }
}

TEST(Integration, TransformedSamplingBeatsFlatOnStructured) {
  // The headline claim, miniaturized: on a Tseitin-structured instance the
  // transformed sampler needs fewer ops per sample than flat-CNF GD.
  const benchgen::Instance instance = benchgen::make_instance("75-10-1-q");
  const auto transformed = transform::transform_cnf(instance.formula);
  const baselines::FlatProblem flat =
      baselines::build_flat_problem(instance.formula);
  EXPECT_LT(transformed.circuit.op_count_2input(),
            flat.circuit.op_count_2input());
  // Reduction factor should be in the paper's reported range (~3.6-4.5x for
  // its 4 ablation instances; accept anything solidly > 2).
  const double reduction = static_cast<double>(flat.circuit.op_count_2input()) /
                           static_cast<double>(transformed.circuit.op_count_2input());
  EXPECT_GT(reduction, 2.0);
}

TEST(Integration, WitnessSurvivesDimacsRoundTrip) {
  const benchgen::Instance instance = benchgen::make_instance("or-60-20-10-UC-10");
  const cnf::Formula reparsed = cnf::parse_dimacs_string(
      cnf::to_dimacs_string(instance.formula));
  EXPECT_TRUE(reparsed.satisfied_by(instance.witness));
}

}  // namespace
}  // namespace hts
