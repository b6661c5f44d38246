// Tests for the three baseline samplers: validity of every solution,
// target/deadline behaviour, diversity, coverage of the full solution space
// on enumerable instances, and a looseness-bounded uniformity check for the
// UniGen-like hash sampler.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "baselines/cmsgen_like.hpp"
#include "transform/transform.hpp"
#include "baselines/diff_sampler.hpp"
#include "baselines/unigen_like.hpp"
#include "baselines/walksat_sampler.hpp"
#include "cnf/dimacs.hpp"
#include "solver/brute.hpp"
#include "util/stop_token.hpp"
#include "util/timer.hpp"

namespace hts::baselines {
namespace {

// 10 constrained models x 2^2 free variables = 40 solutions.
cnf::Formula small_formula() {
  return cnf::parse_dimacs_string("p cnf 6 3\n1 2 0\n3 4 0\n-1 -3 0\n");
}

sampler::RunOptions fast_options(std::size_t min_solutions = 10) {
  sampler::RunOptions options;
  options.min_solutions = min_solutions;
  options.budget_ms = 8000.0;
  options.store_limit = 2048;
  options.verify_against_cnf = true;
  options.seed = 99;
  return options;
}

// --- shared behaviour across all baselines ------------------------------------

enum class Kind { kCmsGen, kUniGen, kDiff, kWalkSat };

std::unique_ptr<sampler::Sampler> make(Kind kind) {
  switch (kind) {
    case Kind::kCmsGen:
      return std::make_unique<CmsGenLike>();
    case Kind::kUniGen:
      return std::make_unique<UniGenLike>();
    case Kind::kDiff: {
      DiffSamplerConfig config;
      config.batch = 256;
      config.policy = tensor::Policy::kSerial;
      return std::make_unique<DiffSampler>(config);
    }
    case Kind::kWalkSat:
      return std::make_unique<WalkSatSampler>();
  }
  return nullptr;
}

class AllBaselines : public ::testing::TestWithParam<Kind> {};

TEST_P(AllBaselines, SolutionsValidAndTargetReached) {
  const cnf::Formula f = small_formula();
  auto sampler_ptr = make(GetParam());
  const sampler::RunResult result = sampler_ptr->run(f, fast_options(10));
  EXPECT_GE(result.n_unique, 10u) << sampler_ptr->name();
  EXPECT_EQ(result.n_invalid, 0u) << sampler_ptr->name();
  for (const cnf::Assignment& solution : result.solutions) {
    EXPECT_TRUE(f.satisfied_by(solution));
  }
}

TEST_P(AllBaselines, UniqueNeverExceedsModelCount) {
  const cnf::Formula f = small_formula();
  const std::uint64_t exact = solver::count_models(f);
  auto sampler_ptr = make(GetParam());
  sampler::RunOptions options = fast_options(0);  // run to budget
  options.budget_ms = 600.0;
  const sampler::RunResult result = sampler_ptr->run(f, options);
  EXPECT_LE(result.n_unique, exact) << sampler_ptr->name();
}

TEST_P(AllBaselines, UnsatYieldsNothing) {
  const cnf::Formula f =
      cnf::parse_dimacs_string("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n");
  auto sampler_ptr = make(GetParam());
  sampler::RunOptions options = fast_options(1);
  options.budget_ms = 300.0;
  const sampler::RunResult result = sampler_ptr->run(f, options);
  EXPECT_EQ(result.n_unique, 0u) << sampler_ptr->name();
}

TEST_P(AllBaselines, PreFiredStopTokenYieldsNothing) {
  const cnf::Formula f = small_formula();
  auto sampler_ptr = make(GetParam());
  sampler::RunOptions options = fast_options(0);  // run to budget
  options.budget_ms = 1000.0;
  util::StopSource source;
  source.request_stop();
  options.stop = source.token();
  const sampler::RunResult result = sampler_ptr->run(f, options);
  EXPECT_EQ(result.n_unique, 0u) << sampler_ptr->name();
}

TEST_P(AllBaselines, AsyncStopEndsALongRun) {
  const cnf::Formula f = small_formula();
  auto sampler_ptr = make(GetParam());
  sampler::RunOptions options = fast_options(0);  // run to budget
  options.budget_ms = 60000.0;  // the stop must beat this by far
  util::StopSource source;
  options.stop = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.request_stop();
  });
  const util::Timer timer;
  const sampler::RunResult result = sampler_ptr->run(f, options);
  canceller.join();
  EXPECT_LT(timer.milliseconds(), 5000.0) << sampler_ptr->name();
  EXPECT_EQ(result.n_invalid, 0u) << sampler_ptr->name();
}

TEST_P(AllBaselines, RunWithNoBoundIsRejected) {
  // A unique target ends a run only on a formula with that many models, so
  // a run with neither a budget nor a stop source is rejected up front.
  const cnf::Formula f = small_formula();
  auto sampler_ptr = make(GetParam());
  sampler::RunOptions options = fast_options(1);
  options.budget_ms = 0.0;
  EXPECT_THROW((void)sampler_ptr->run(f, options), std::invalid_argument)
      << sampler_ptr->name();

  // A stop source that can fire is a bound, and so is a budget.
  util::StopSource source;
  options.stop = source.token();
  EXPECT_GE(sampler_ptr->run(f, options).n_unique, 1u) << sampler_ptr->name();
  options.stop = util::StopToken{};
  options.budget_ms = 8000.0;
  EXPECT_GE(sampler_ptr->run(f, options).n_unique, 1u) << sampler_ptr->name();
}

INSTANTIATE_TEST_SUITE_P(Baselines, AllBaselines,
                         ::testing::Values(Kind::kCmsGen, Kind::kUniGen,
                                           Kind::kDiff, Kind::kWalkSat),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kCmsGen:
                               return "CmsGen";
                             case Kind::kUniGen:
                               return "UniGen";
                             case Kind::kDiff:
                               return "Diff";
                             case Kind::kWalkSat:
                               return "WalkSat";
                           }
                           return "?";
                         });

// --- sampler-specific behaviour ---------------------------------------------------

TEST(CmsGen, SolverBackedUnsatDetection) {
  const cnf::Formula f = cnf::parse_dimacs_string("p cnf 1 2\n1 0\n-1 0\n");
  CmsGenLike sampler;
  const sampler::RunResult result = sampler.run(f, fast_options(1));
  EXPECT_TRUE(result.proven_unsat);
}

TEST(CmsGen, CoversWholeSolutionSpace) {
  const cnf::Formula f = small_formula();
  const auto models = solver::enumerate_models(f);
  CmsGenLike sampler;
  sampler::RunOptions options = fast_options(models.size());
  const sampler::RunResult result = sampler.run(f, options);
  EXPECT_EQ(result.n_unique, models.size());
  std::set<cnf::Assignment> found(result.solutions.begin(), result.solutions.end());
  EXPECT_EQ(found.size(), models.size());
}

TEST(UniGen, ApproximateUniformityOnTinyInstance) {
  // 3 free-ish solutions: (x1|x2) over 2 vars. Draw many samples; each of
  // the 3 models should receive a non-trivial share.  UniGen's guarantee is
  // (1+eps)-uniformity; the check here is deliberately loose.
  const cnf::Formula f = cnf::parse_dimacs_string("p cnf 2 1\n1 2 0\n");
  UniGenConfig config;
  config.samples_per_cell = 2;
  UniGenLike sampler(config);

  std::map<std::vector<std::uint8_t>, int> histogram;
  int total = 0;
  for (int round = 0; round < 40; ++round) {
    sampler::RunOptions options;
    options.min_solutions = 0;
    options.budget_ms = 50.0;
    options.store_limit = 16;
    options.seed = 1000 + static_cast<std::uint64_t>(round);
    const sampler::RunResult result = sampler.run(f, options);
    for (const auto& solution : result.solutions) {
      ++histogram[solution];
      ++total;
    }
  }
  ASSERT_GE(total, 30);
  EXPECT_EQ(histogram.size(), 3u);  // all models observed
  for (const auto& [model, count] : histogram) {
    const double share = static_cast<double>(count) / total;
    EXPECT_GT(share, 0.10);  // no model starved
    EXPECT_LT(share, 0.65);  // no model dominates
  }
}

TEST(Diff, FlatProblemStructure) {
  const cnf::Formula f = small_formula();
  const FlatProblem problem = build_flat_problem(f);
  // One input per var; one output constraint per clause.
  EXPECT_EQ(problem.circuit.n_inputs(), f.n_vars());
  EXPECT_EQ(problem.circuit.outputs().size(), f.n_clauses());
  // Flat circuit evaluation == clause satisfaction.
  std::vector<std::uint8_t> in{1, 0, 0, 1, 0, 0};
  const auto values = problem.circuit.eval(in);
  EXPECT_EQ(problem.circuit.outputs_satisfied(values),
            f.satisfied_by(cnf::Assignment{1, 0, 0, 1, 0, 0}));
}

TEST(Diff, OpCountExceedsTransformedForm) {
  // The whole point of the paper: flat CNF relaxation executes more ops than
  // the extracted multi-level form.
  const cnf::Formula f = cnf::parse_dimacs_string(
      "p cnf 5 5\n-5 1 2 3 4 0\n5 -1 0\n5 -2 0\n5 -3 0\n5 -4 0\n");
  const FlatProblem flat = build_flat_problem(f);
  const auto transformed = transform::transform_cnf(f);
  EXPECT_GT(flat.circuit.op_count_2input(),
            transformed.circuit.op_count_2input());
}

TEST(WalkSatSampler, ProgressRecorded) {
  const cnf::Formula f = small_formula();
  WalkSatSampler sampler;
  const sampler::RunResult result = sampler.run(f, fast_options(5));
  EXPECT_GE(result.progress.size(), 1u);
}

}  // namespace
}  // namespace hts::baselines
