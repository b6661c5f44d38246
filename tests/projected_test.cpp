// Projected sampling tests: sampling-set-aware dedup (bank keys on the
// projection), golden determinism of projected streams across kernel
// policies and fleet sizes, amplifier interplay, per-variable loss weights,
// the diversity restart objective, and the end-to-end service contract that
// a 'c ind'-scoped job never delivers the same projection twice.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/uniformity.hpp"
#include "benchgen/families.hpp"
#include "cnf/dimacs.hpp"
#include "core/gradient_sampler.hpp"
#include "core/unique_bank.hpp"
#include "service/server.hpp"

namespace hts {
namespace {

/// (x1|x2) & (x3|x4) with 'c ind 1 2': 9 full models project onto 3
/// distinct classes over {x1, x2}.
cnf::Formula projected_or_formula() {
  return cnf::parse_dimacs_string("c ind 1 2 0\np cnf 4 2\n1 2 0\n3 4 0\n");
}

/// formula_a from the service tests plus a 'c ind 1 3 5' set: constrained
/// core (x1|x2)(x3|x4)(~x1|~x3) over 7 vars, projected onto {x1, x3, x5}.
cnf::Formula projected_service_formula() {
  return cnf::parse_dimacs_string(
      "c ind 1 3 5 0\np cnf 7 3\n1 2 0\n3 4 0\n-1 -3 0\n");
}

std::vector<std::uint8_t> project(const cnf::Assignment& draw,
                                  const std::vector<cnf::Var>& set) {
  std::vector<std::uint8_t> key;
  key.reserve(set.size());
  for (const cnf::Var v : set) key.push_back(draw[v]);
  return key;
}

void expect_distinct_projections(const std::vector<cnf::Assignment>& solutions,
                                 const std::vector<cnf::Var>& set) {
  std::set<std::vector<std::uint8_t>> seen;
  for (const cnf::Assignment& solution : solutions) {
    EXPECT_TRUE(seen.insert(project(solution, set)).second)
        << "duplicate projection delivered";
  }
}

sampler::RunOptions golden_options(std::uint64_t seed = 0x90dd) {
  sampler::RunOptions options;
  options.min_solutions = 0;  // only the round budget stops the run
  options.budget_ms = -1.0;
  options.store_limit = 1 << 20;
  options.verify_against_cnf = true;
  options.seed = seed;
  return options;
}

// --- projected dedup counts classes, not witnesses ---------------------------

TEST(ProjectedDedup, BankKeysOnTheProjection) {
  const cnf::Formula formula = projected_or_formula();
  sampler::GradientConfig config;
  config.batch = 256;
  config.max_rounds = 4;
  sampler::GradientSampler sampler(config);
  const sampler::RunResult result = sampler.run(formula, golden_options());
  EXPECT_EQ(result.n_invalid, 0u);
  // Exactly one full witness per projected class, never more.
  EXPECT_EQ(result.n_unique, 3u);
  ASSERT_EQ(result.solutions.size(), 3u);
  for (const cnf::Assignment& solution : result.solutions) {
    EXPECT_TRUE(formula.satisfied_by(solution));
  }
  expect_distinct_projections(result.solutions, formula.sampling_set());
}

TEST(ProjectedDedup, AnalysisAgreesOnTheProjectedModelCount) {
  const cnf::Formula formula = projected_or_formula();
  const analysis::UniformityReport report =
      analysis::analyze_projected_uniformity(formula, formula.sampling_set(), {});
  EXPECT_EQ(report.n_models, 3u);
  // Empty set = identity projection = the plain full-space count.
  const analysis::UniformityReport full =
      analysis::analyze_projected_uniformity(formula, {}, {});
  EXPECT_EQ(full.n_models, 9u);
  EXPECT_EQ(analysis::analyze_uniformity(formula, {}).n_models, 9u);
}

TEST(ProjectedDedup, TurningTheKnobOffRestoresFullAssignmentDedup) {
  const cnf::Formula formula = projected_or_formula();
  sampler::GradientConfig config;
  config.batch = 256;
  config.max_rounds = 6;
  config.projected_dedup = false;
  sampler::GradientSampler sampler(config);
  sampler::RunOptions options = golden_options();
  options.min_solutions = 9;
  options.budget_ms = 10000.0;
  const sampler::RunResult result = sampler.run(formula, options);
  // Full-assignment dedup can (and here does) bank more witnesses than
  // there are projected classes.
  EXPECT_GT(result.n_unique, 3u);
}

// --- golden determinism of projected streams ---------------------------------

TEST(ProjectedGolden, PoliciesProduceBitIdenticalProjectedStreams) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  for (const auto& name : {"or-50-10-7-UC-10", "75-10-1-q"}) {
    const auto instance = benchgen::make_instance(name, gen);
    cnf::Formula formula = instance.formula;
    // Project onto the first 8 variables.
    std::vector<cnf::Var> set;
    for (cnf::Var v = 0; v < 8 && v < formula.n_vars(); ++v) set.push_back(v);
    formula.set_sampling_set(set);

    constexpr tensor::Policy kPolicies[] = {tensor::Policy::kSerial,
                                            tensor::Policy::kDataParallel};
    bool have_reference = false;
    sampler::RunResult reference;
    for (const tensor::Policy policy : kPolicies) {
      sampler::GradientConfig config;
      config.batch = 256;
      config.policy = policy;
      config.max_rounds = 2;
      sampler::GradientSampler sampler(config);
      const sampler::RunResult result = sampler.run(formula, golden_options());
      EXPECT_EQ(result.n_invalid, 0u) << name;
      expect_distinct_projections(result.solutions, set);
      if (!have_reference) {
        have_reference = true;
        reference = result;
        EXPECT_GT(reference.n_unique, 0u) << name;
        continue;
      }
      EXPECT_EQ(result.n_unique, reference.n_unique)
          << name << " policy " << tensor::policy_name(policy);
      ASSERT_EQ(result.solutions, reference.solutions)
          << name << " policy " << tensor::policy_name(policy);
    }
  }
}

TEST(ProjectedGolden, EveryFleetSizeSaturatesTheProjectedSpaceWithoutDuplicates) {
  // Racing round-parallel workers do not promise a bit-identical stream
  // (only the service's time-sliced rounds do — see ProjectedService below);
  // what every fleet size must agree on is the projected *set* semantics:
  // saturate to exactly the 6 reachable classes, never bank a duplicate.
  const cnf::Formula formula = projected_service_formula();
  for (const std::size_t n_workers : {1u, 2u, 4u}) {
    sampler::GradientConfig config;
    config.batch = 256;
    config.policy = tensor::Policy::kSerial;
    config.max_rounds = 8;
    config.n_workers = n_workers;
    sampler::GradientSampler sampler(config);
    sampler::RunOptions options = golden_options();
    options.min_solutions = 6;
    options.budget_ms = 10000.0;
    const sampler::RunResult result = sampler.run(formula, options);
    EXPECT_EQ(result.n_unique, 6u) << n_workers << " workers";
    ASSERT_EQ(result.solutions.size(), 6u) << n_workers << " workers";
    for (const cnf::Assignment& solution : result.solutions) {
      EXPECT_TRUE(formula.satisfied_by(solution));
    }
    expect_distinct_projections(result.solutions, formula.sampling_set());
  }
}

TEST(ProjectedGolden, AmplifierRespectsProjectedDedup) {
  const cnf::Formula formula = projected_service_formula();
  sampler::GradientConfig config;
  config.batch = 256;
  config.max_rounds = 2;
  config.amplify.enabled = true;
  config.amplify.max_pairs_per_base = 0;
  sampler::GradientSampler a(config);
  sampler::GradientSampler b(config);
  const sampler::RunResult ra = a.run(formula, golden_options());
  const sampler::RunResult rb = b.run(formula, golden_options());
  // Amplified uniques obey the same projected key: content, order, and no
  // duplicate classes — and reruns are bit-identical.
  expect_distinct_projections(ra.solutions, formula.sampling_set());
  EXPECT_LE(ra.n_unique, 8u);  // at most 2^3 projected classes exist
  ASSERT_EQ(ra.solutions, rb.solutions);
  EXPECT_EQ(ra.n_unique, rb.n_unique);
}

TEST(ProjectedGolden, NoSamplingSetRunsAreUnaffectedByTheKnobs) {
  // Without a set, projected_dedup/diversity_restart must be inert: the
  // stream is bit-identical to a run with both turned off.
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  const auto instance = benchgen::make_instance("75-10-1-q", gen);
  auto run_with = [&](bool projected, bool diversity) {
    sampler::GradientConfig config;
    config.batch = 256;
    config.max_rounds = 2;
    config.projected_dedup = projected;
    config.diversity_restart = diversity;
    sampler::GradientSampler sampler(config);
    return sampler.run(instance.formula, golden_options());
  };
  const sampler::RunResult on = run_with(true, true);
  const sampler::RunResult off = run_with(false, false);
  EXPECT_EQ(on.n_unique, off.n_unique);
  ASSERT_EQ(on.solutions, off.solutions);
}

// --- per-variable loss weights ----------------------------------------------

TEST(WeightedLoss, LiteralWeightSteersAFreeVariable) {
  // x3 is free (appears in no clause): plain descent never moves it, so a
  // positive-literal weight is the only force on it.
  const cnf::Formula formula = cnf::parse_dimacs_string("p cnf 3 1\n1 2 0\n");
  sampler::GradientConfig config;
  config.batch = 512;
  config.max_rounds = 1;
  config.lit_weights.push_back({/*var=*/2, /*negated=*/false, /*weight=*/4.0f});
  sampler::GradientSampler sampler(config);
  sampler::RunOptions options = golden_options();
  options.store_all_draws = true;
  const sampler::RunResult result = sampler.run(formula, options);
  ASSERT_GT(result.solutions.size(), 100u);
  EXPECT_GT(sampler.extras().weighted_inputs, 0u);
  std::size_t x3_true = 0;
  for (const cnf::Assignment& draw : result.solutions) {
    if (draw[2] != 0) ++x3_true;
  }
  const double fraction = static_cast<double>(x3_true) /
                          static_cast<double>(result.solutions.size());
  EXPECT_GE(fraction, 0.8) << "weight 4 on x3 should dominate its random init";
}

TEST(WeightedLoss, NegatedLiteralWeightSteersTheOtherWay) {
  const cnf::Formula formula = cnf::parse_dimacs_string("p cnf 3 1\n1 2 0\n");
  sampler::GradientConfig config;
  config.batch = 512;
  config.max_rounds = 1;
  config.lit_weights.push_back({/*var=*/2, /*negated=*/true, /*weight=*/4.0f});
  sampler::GradientSampler sampler(config);
  sampler::RunOptions options = golden_options();
  options.store_all_draws = true;
  const sampler::RunResult result = sampler.run(formula, options);
  ASSERT_GT(result.solutions.size(), 100u);
  std::size_t x3_false = 0;
  for (const cnf::Assignment& draw : result.solutions) {
    if (draw[2] == 0) ++x3_false;
  }
  EXPECT_GE(static_cast<double>(x3_false) /
                static_cast<double>(result.solutions.size()),
            0.8);
}

TEST(WeightedLoss, ZeroAndEmptyWeightsAreBitIdentical) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  const auto instance = benchgen::make_instance("or-50-10-7-UC-10", gen);
  auto run_with = [&](std::vector<sampler::LitWeight> weights) {
    sampler::GradientConfig config;
    config.batch = 256;
    config.max_rounds = 2;
    config.lit_weights = std::move(weights);
    sampler::GradientSampler sampler(config);
    const sampler::RunResult result = sampler.run(instance.formula, golden_options());
    EXPECT_EQ(sampler.extras().weighted_inputs, 0u);
    return result;
  };
  const sampler::RunResult none = run_with({});
  const sampler::RunResult zero = run_with({{/*var=*/0, false, /*weight=*/0.0f}});
  EXPECT_EQ(none.n_unique, zero.n_unique);
  ASSERT_EQ(none.solutions, zero.solutions);
}

TEST(WeightedLoss, PoliciesAgreeOnWeightedStreams) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  const auto instance = benchgen::make_instance("75-10-1-q", gen);
  bool have_reference = false;
  sampler::RunResult reference;
  for (const tensor::Policy policy : {tensor::Policy::kSerial,
                                      tensor::Policy::kDataParallel}) {
    sampler::GradientConfig config;
    config.batch = 256;
    config.max_rounds = 2;
    config.policy = policy;
    config.lit_weights.push_back({/*var=*/0, false, /*weight=*/2.0f});
    config.lit_weights.push_back({/*var=*/3, true, /*weight=*/1.5f});
    sampler::GradientSampler sampler(config);
    const sampler::RunResult result = sampler.run(instance.formula, golden_options());
    if (!have_reference) {
      have_reference = true;
      reference = result;
      continue;
    }
    ASSERT_EQ(result.solutions, reference.solutions)
        << tensor::policy_name(policy);
  }
}

// --- diversity restarts ------------------------------------------------------

TEST(DiversityRestart, ReseedsRowsAndStaysDeterministic) {
  const cnf::Formula formula = projected_service_formula();
  auto run_with = [&](bool diversity) {
    sampler::GradientConfig config;
    config.batch = 256;
    config.max_rounds = 3;
    config.diversity_restart = diversity;
    sampler::GradientSampler sampler(config);
    const sampler::RunResult result = sampler.run(formula, golden_options());
    return std::make_pair(result, sampler.extras().diversity_restarted_rows);
  };
  const auto [off, off_rows] = run_with(false);
  EXPECT_EQ(off_rows, 0u);
  const auto [on_a, on_rows_a] = run_with(true);
  const auto [on_b, on_rows_b] = run_with(true);
  // Once classes are banked, subsequent rounds re-seed rows that would only
  // rediscover them.
  EXPECT_GT(on_rows_a, 0u);
  // Deterministic: same seed, same restarts, same stream.
  EXPECT_EQ(on_rows_a, on_rows_b);
  ASSERT_EQ(on_a.solutions, on_b.solutions);
  // Diversity must never lose classes at equal round budget.
  EXPECT_GE(on_a.n_unique, off.n_unique);
  expect_distinct_projections(on_a.solutions, formula.sampling_set());
}

// --- bank + normalization units ----------------------------------------------

TEST(ProjectedUnits, UniqueBankContains) {
  sampler::UniqueBank bank(/*n_bits=*/70);
  const std::vector<std::uint64_t> key = {0xdeadbeefULL, 0x2a};
  EXPECT_FALSE(bank.contains(key.data()));
  EXPECT_TRUE(bank.insert(key.data()));
  EXPECT_TRUE(bank.contains(key.data()));
  EXPECT_FALSE(bank.insert(key.data()));

  sampler::ShardedUniqueBank sharded(/*n_bits=*/70);
  EXPECT_FALSE(sharded.contains(key.data()));
  EXPECT_TRUE(sharded.insert(key.data()));
  EXPECT_TRUE(sharded.contains(key.data()));
}

TEST(ProjectedUnits, NormalizeSamplingSetSortsDedupsAndDropsOutOfRange) {
  const std::vector<cnf::Var> normalized = sampler::normalize_sampling_set(
      {5, 1, 5, 99, 3, cnf::kInvalidVar, 1}, /*n_vars=*/10);
  const std::vector<cnf::Var> expect = {1, 3, 5};
  EXPECT_EQ(normalized, expect);
}

// --- end-to-end service contract ---------------------------------------------

TEST(ProjectedService, CIndScopedJobNeverDeliversADuplicateProjection) {
  const cnf::Formula formula = projected_service_formula();
  auto run_once = [&](std::size_t n_workers) {
    service::Server server({.n_workers = n_workers});
    service::SamplingRequest request;
    request.formula = formula;
    request.seed = 99;
    // All 6 reachable projected classes over {x1, x3, x5}: (x1,x3) has three
    // legal combinations under (~x1|~x3), and x5 is free.
    request.target_uniques = 6;
    request.deadline_ms = 60000.0;  // safety valve only
    request.config.batch = 128;
    request.config.iterations = 3;
    service::JobHandle handle = server.submit(std::move(request));
    (void)handle.wait();
    std::vector<cnf::Assignment> solutions;
    cnf::Assignment assignment;
    while (handle.stream().next(assignment)) solutions.push_back(assignment);
    return solutions;
  };
  bool have_reference = false;
  std::vector<cnf::Assignment> reference;
  for (const std::size_t n_workers : {1u, 2u, 4u}) {
    const std::vector<cnf::Assignment> solutions = run_once(n_workers);
    ASSERT_FALSE(solutions.empty());
    for (const cnf::Assignment& solution : solutions) {
      EXPECT_TRUE(formula.satisfied_by(solution));
    }
    expect_distinct_projections(solutions, formula.sampling_set());
    // The projected space over {x1, x3, x5} has at most 8 classes and
    // (~x1|~x3) kills two of them: the stream can never exceed 6.
    EXPECT_LE(solutions.size(), 6u);
    if (!have_reference) {
      have_reference = true;
      reference = solutions;
      continue;
    }
    // Content AND order are a pure function of (formula, seed, config).
    ASSERT_EQ(solutions, reference) << n_workers << " workers";
  }
}

TEST(ProjectedService, PerRequestSetOverridesAndOutlivesTheCaller) {
  // The request's own sampling set (not the formula's) drives projected
  // dedup, and the job owns a copy — the caller's vector can die.
  const cnf::Formula formula =
      cnf::parse_dimacs_string("p cnf 4 2\n1 2 0\n3 4 0\n");
  service::Server server({.n_workers = 2});
  service::JobHandle handle = [&] {
    std::vector<cnf::Var> ephemeral_set = {0, 1};
    service::SamplingRequest request;
    request.formula = formula;
    request.seed = 7;
    request.target_uniques = 3;
    request.sampling_set = ephemeral_set;
    request.config.batch = 128;
    request.config.iterations = 3;
    return server.submit(std::move(request));
  }();
  EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted);
  EXPECT_EQ(handle.stats().n_unique, 3u);
  std::vector<cnf::Assignment> solutions;
  cnf::Assignment assignment;
  while (handle.stream().next(assignment)) solutions.push_back(assignment);
  ASSERT_EQ(solutions.size(), 3u);
  expect_distinct_projections(solutions, {0, 1});
}

}  // namespace
}  // namespace hts
