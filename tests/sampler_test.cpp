// Tests for the gradient sampler (the paper's method) and the UniqueBank:
// the bank's key table against a std::set, validity of every emitted
// solution, unique-count exactness on enumerable instances, determinism,
// iteration/learning behaviour, cone-only ablation, and UNSAT handling.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/diff_sampler.hpp"
#include "bdd/builder.hpp"
#include "benchgen/families.hpp"
#include "core/gradient_sampler.hpp"
#include "core/unique_bank.hpp"
#include "circuit/tseitin.hpp"
#include "cnf/dimacs.hpp"
#include "solver/brute.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hts::sampler {
namespace {

TEST(UniqueBank, DeduplicatesKeys) {
  UniqueBank bank(130);  // > 2 words
  std::vector<std::uint64_t> key(bank.n_words(), 0);
  EXPECT_TRUE(bank.insert(key.data()));
  EXPECT_FALSE(bank.insert(key.data()));
  key[1] = 1;
  EXPECT_TRUE(bank.insert(key.data()));
  EXPECT_EQ(bank.size(), 2u);
}

TEST(UniqueBank, InsertBitsMatchesPackedInsert) {
  UniqueBank bank(70);
  std::vector<std::uint8_t> bits(70, 0);
  bits[0] = 1;
  bits[69] = 1;
  EXPECT_TRUE(bank.insert_bits(bits));
  std::vector<std::uint64_t> key(bank.n_words(), 0);
  key[0] = 1ULL;
  key[1] = 1ULL << 5;  // bit 69
  EXPECT_FALSE(bank.insert(key.data()));
}

// 200K inserts, a quarter of them repeats of earlier keys, checked insert by
// insert against a std::set: the slot array grows from 16 to 2^18 slots (14
// doublings), and every doubling must keep every banked key findable.
TEST(UniqueBank, MatchesStdSetAcrossTableGrowth) {
  for (const std::size_t n_words : {1u, 2u, 3u}) {
    UniqueBank bank(64 * n_words);
    std::set<std::vector<std::uint64_t>> reference;
    std::vector<std::vector<std::uint64_t>> inserted;
    util::Rng rng(91 + n_words);
    std::vector<std::uint64_t> key(n_words);
    for (std::size_t i = 0; i < 200000; ++i) {
      if (!inserted.empty() && rng.next_below(4) == 0) {
        key = inserted[rng.next_below(inserted.size())];
      } else {
        // Sparse words as well as dense ones: harvested keys are rarely
        // uniform random.
        for (std::uint64_t& word : key) {
          word = rng.next_below(8) == 0 ? rng.next_below(1024) : rng.next_u64();
        }
      }
      const bool is_new = reference.insert(key).second;
      ASSERT_EQ(bank.insert(key.data()), is_new)
          << n_words << " words, insert " << i;
      if (is_new) inserted.push_back(key);
      ASSERT_EQ(bank.size(), reference.size());
    }
    EXPECT_GT(bank.size(), 100000u);
    for (const std::vector<std::uint64_t>& banked : inserted) {
      ASSERT_TRUE(bank.contains(banked.data())) << n_words << " words";
    }
    for (std::size_t i = 0; i < 10000; ++i) {
      for (std::uint64_t& word : key) word = rng.next_u64();
      ASSERT_EQ(bank.contains(key.data()), reference.count(key) != 0);
    }
  }
}

TEST(UniqueBank, KeysDifferingOnlyInTheLastWordStayDistinct) {
  UniqueBank bank(3 * 64);
  std::vector<std::uint64_t> key = {0x0123456789abcdefULL, ~0ULL, 0};
  for (std::uint64_t last = 0; last < 1000; ++last) {
    key[2] = last;
    ASSERT_TRUE(bank.insert(key.data())) << last;
  }
  for (std::uint64_t last = 0; last < 1000; ++last) {
    key[2] = last;
    ASSERT_FALSE(bank.insert(key.data())) << last;
    ASSERT_TRUE(bank.contains(key.data())) << last;
  }
  key[2] = 1000;
  EXPECT_FALSE(bank.contains(key.data()));
  EXPECT_EQ(bank.size(), 1000u);
}

TEST(UniqueBank, ZeroWordKeysHoldOneKey) {
  UniqueBank bank(0);
  EXPECT_EQ(bank.n_words(), 0u);
  const std::uint64_t unread = 0;  // a zero-word key reads nothing
  EXPECT_FALSE(bank.contains(&unread));
  EXPECT_TRUE(bank.insert(&unread));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(bank.insert(&unread));
  EXPECT_TRUE(bank.contains(&unread));
  EXPECT_FALSE(bank.insert_bits({}));
  EXPECT_EQ(bank.size(), 1u);
}

// Every key hashed alike: one tag, one probe chain through every banked key,
// so only the whole-key compare tells keys apart — across table growth too.
TEST(KeyTable, ConstantHashStillTellsKeysApart) {
  KeyTable table(2);
  constexpr std::uint64_t kHash = 0x5555aaaa12345678ULL;
  std::vector<std::uint64_t> key(2, 7);
  for (std::uint64_t i = 0; i < 300; ++i) {
    key[1] = i;
    ASSERT_TRUE(table.insert(key.data(), kHash)) << i;
    ASSERT_FALSE(table.insert(key.data(), kHash)) << i;
  }
  for (std::uint64_t i = 0; i < 300; ++i) {
    key[1] = i;
    ASSERT_TRUE(table.contains(key.data(), kHash)) << i;
  }
  key[1] = 300;
  EXPECT_FALSE(table.contains(key.data(), kHash));
  EXPECT_EQ(table.size(), 300u);
}

// size_bytes() is the table's allocated bytes: nothing before the first
// key, at least the banked key words after it, and a duplicate (which
// allocates nothing) leaves it unchanged.
TEST(UniqueBank, SizeBytesCountsAllocatedBytes) {
  UniqueBank bank(130);  // 3 words per key
  EXPECT_EQ(bank.size_bytes(), 0u);
  std::vector<std::uint64_t> key(bank.n_words(), 0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    key[0] = i;
    ASSERT_TRUE(bank.insert(key.data()));
    ASSERT_GE(bank.size_bytes(),
              bank.size() * bank.n_words() * sizeof(std::uint64_t));
  }
  const std::size_t bytes = bank.size_bytes();
  key[0] = 17;
  EXPECT_FALSE(bank.insert(key.data()));
  EXPECT_EQ(bank.size_bytes(), bytes);
}

/// A small formula with a known, comfortable solution space:
/// (x1|x2) & (x3|x4) & (~x1|~x3) over 7 vars — 10 constrained models times
/// 2^3 free variables = 80 solutions, so every target below is reachable.
cnf::Formula small_formula() {
  return cnf::parse_dimacs_string("p cnf 7 3\n1 2 0\n3 4 0\n-1 -3 0\n");
}

RunOptions fast_options(std::size_t min_solutions = 10) {
  RunOptions options;
  options.min_solutions = min_solutions;
  options.budget_ms = 5000.0;
  options.store_limit = 64;
  options.verify_against_cnf = true;
  options.seed = 123;
  return options;
}

GradientConfig small_config() {
  GradientConfig config;
  config.batch = 256;
  config.policy = tensor::Policy::kSerial;
  return config;
}

TEST(GradientSampler, AllSolutionsValid) {
  const cnf::Formula f = small_formula();
  GradientSampler sampler(small_config());
  const RunResult result = sampler.run(f, fast_options());
  EXPECT_GE(result.n_unique, 10u);
  EXPECT_EQ(result.n_invalid, 0u);
  for (const cnf::Assignment& solution : result.solutions) {
    EXPECT_TRUE(f.satisfied_by(solution));
  }
}

TEST(GradientSampler, FindsEntireSolutionSpace) {
  // Exhaustible instance: every model must eventually be sampled, and the
  // unique count can never exceed the exact model count.
  const cnf::Formula f = small_formula();
  const std::uint64_t exact = solver::count_models(f);
  RunOptions options = fast_options(/*min_solutions=*/exact);
  options.store_limit = 2 * exact;
  GradientSampler sampler(small_config());
  const RunResult result = sampler.run(f, options);
  EXPECT_EQ(result.n_unique, exact);
  EXPECT_LE(result.n_unique, exact);
  // Stored solutions are distinct.
  std::set<cnf::Assignment> distinct(result.solutions.begin(),
                                     result.solutions.end());
  EXPECT_EQ(distinct.size(), result.solutions.size());
}

TEST(GradientSampler, DeterministicForSeed) {
  const cnf::Formula f = small_formula();
  RunOptions options = fast_options(20);
  options.budget_ms = -1.0;  // no deadline: fully deterministic
  // The target ends the run in its first round; the cap only bounds it.
  GradientConfig config = small_config();
  config.max_rounds = 10;
  GradientSampler a(config);
  GradientSampler b(config);
  const RunResult ra = a.run(f, options);
  const RunResult rb = b.run(f, options);
  EXPECT_EQ(ra.n_unique, rb.n_unique);
  EXPECT_EQ(ra.n_valid, rb.n_valid);
  EXPECT_EQ(ra.solutions, rb.solutions);
}

TEST(GradientSampler, RunWithNoBoundIsRejected) {
  // No budget, no stop token, no round cap: only the unique target could end
  // the run, and it does so only on a formula with that many models.
  const cnf::Formula f = small_formula();
  RunOptions options = fast_options(1);
  options.budget_ms = 0.0;
  GradientConfig config = small_config();
  EXPECT_THROW((void)GradientSampler(config).run(f, options),
               std::invalid_argument);
  config.max_rounds = 1;  // a round cap is a bound
  EXPECT_GE(GradientSampler(config).run(f, options).n_unique, 1u);
}

TEST(GradientSampler, DifferentSeedsDiversify) {
  const cnf::Formula f = small_formula();
  RunOptions options = fast_options(15);
  options.budget_ms = -1.0;
  options.seed = 1;
  // The target ends each run in its first round; the cap only bounds it.
  GradientConfig config = small_config();
  config.max_rounds = 10;
  GradientSampler sampler(config);
  const RunResult ra = sampler.run(f, options);
  options.seed = 2;
  const RunResult rb = sampler.run(f, options);
  EXPECT_NE(ra.solutions, rb.solutions);
}

TEST(GradientSampler, UniquesPerIterationMonotone) {
  const cnf::Formula f = small_formula();
  GradientSampler sampler(small_config());
  (void)sampler.run(f, fast_options(20));
  const auto& curve = sampler.extras().uniques_per_iteration;
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]) << i;
  }
  EXPECT_GT(curve.back(), 0u);
}

TEST(GradientSampler, ProgressTimestampsMonotone) {
  const cnf::Formula f = small_formula();
  GradientSampler sampler(small_config());
  const RunResult result = sampler.run(f, fast_options(20));
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_GE(result.progress[i].elapsed_ms, result.progress[i - 1].elapsed_ms);
    EXPECT_GE(result.progress[i].n_unique, result.progress[i - 1].n_unique);
  }
}

TEST(GradientSampler, ConeOnlySamplesValidly) {
  const cnf::Formula f = small_formula();
  GradientConfig config = small_config();
  config.cone_only = true;
  GradientSampler sampler(config);
  const RunResult result = sampler.run(f, fast_options());
  EXPECT_GE(result.n_unique, 10u);
  EXPECT_EQ(result.n_invalid, 0u);
}

TEST(GradientSampler, HandlesUnsat) {
  const cnf::Formula f = cnf::parse_dimacs_string("p cnf 1 2\n1 0\n-1 0\n");
  GradientSampler sampler(small_config());
  RunOptions options = fast_options(5);
  options.budget_ms = 200.0;
  const RunResult result = sampler.run(f, options);
  EXPECT_EQ(result.n_unique, 0u);
  // Either recognized during transformation or simply yields nothing.
  EXPECT_TRUE(result.proven_unsat || result.timed_out);
}

TEST(GradientSampler, ExtrasDescribeAFormulaProvenUnsat) {
  // A SAT run fills extras(); a following formula the transformation
  // proves UNSAT returns before the loop and must not keep describing the
  // previous one.
  GradientConfig config = small_config();
  config.max_rounds = 2;
  GradientSampler sampler(config);
  (void)sampler.run(small_formula(), fast_options(1000));
  ASSERT_GT(sampler.extras().rounds, 0u);
  ASSERT_FALSE(sampler.extras().uniques_per_iteration.empty());

  const RunResult result = sampler.run(
      cnf::parse_dimacs_string("p cnf 2 3\n1 2 0\n0\n-1 0\n"), fast_options());
  ASSERT_TRUE(result.proven_unsat);
  EXPECT_EQ(sampler.extras().rounds, 0u);
  EXPECT_TRUE(sampler.extras().uniques_per_iteration.empty());
  EXPECT_EQ(sampler.extras().engine_memory_bytes, 0u);
}

TEST(GradientSampler, MalformedConfigsAreRejected) {
  // The configs service admission rejects (ServiceAdmission.
  // ZeroBatchIsRejectedAtSubmitAndSparesItsNeighbor) throw from the
  // stand-alone samplers too, before any build, naming the field.  Batch 0
  // would trip the engine's batch invariant; iterations + 1 sizes the
  // per-iteration curve, so -2 would ask for SIZE_MAX slots.
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const struct {
    void (*spoil)(GdLoopConfig&);
    const char* field;
  } kMalformed[] = {
      {[](GdLoopConfig& c) { c.batch = 0; }, "batch"},
      // Padding to whole 64-row words wraps SIZE_MAX to 0 rows; 2^62 rows
      // of 7 floats overflow V's size.
      {[](GdLoopConfig& c) { c.batch = std::numeric_limits<std::size_t>::max(); },
       "batch"},
      {[](GdLoopConfig& c) { c.batch = std::size_t{1} << 62; }, "batch"},
      {[](GdLoopConfig& c) { c.iterations = -1; }, "iterations"},
      {[](GdLoopConfig& c) { c.iterations = -2; }, "iterations"},
      {[](GdLoopConfig& c) { c.learning_rate = 0.0f; }, "learning_rate"},
      {[](GdLoopConfig& c) { c.learning_rate = kNan; }, "learning_rate"},
      {[](GdLoopConfig& c) { c.init_std = 0.0f; }, "init_std"},
      {[](GdLoopConfig& c) { c.init_std = -kInf; }, "init_std"},
      {[](GdLoopConfig& c) { c.lit_weights = {{0, false, kInf}}; },
       "lit_weights"},
      // small_formula() has 7 variables, 0..6.
      {[](GdLoopConfig& c) { c.lit_weights = {{7, false, 1.0f}}; },
       "lit_weights"}};
  const cnf::Formula f = small_formula();
  auto expect_rejected = [](auto&& run, const char* field) {
    try {
      (void)run();
      ADD_FAILURE() << "config." << field << " was not rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  for (const auto& malformed : kMalformed) {
    GradientConfig config = small_config();
    malformed.spoil(config);
    GradientSampler sampler(config);
    expect_rejected([&] { return sampler.run(f, fast_options()); },
                    malformed.field);
    // DiffSampler runs the same loop, hence the same check.
    baselines::DiffSamplerConfig diff_config;
    diff_config.batch = 256;
    malformed.spoil(diff_config);
    baselines::DiffSampler diff(diff_config);
    expect_rejected([&] { return diff.run(f, fast_options()); },
                    malformed.field);
  }
}

TEST(GradientSampler, MalformedConfigIsRejectedBeforeTheTransform) {
  GradientConfig config = small_config();
  config.batch = 0;
  GradientSampler sampler(config);
  EXPECT_THROW((void)sampler.run(small_formula(), fast_options()),
               std::invalid_argument);
  EXPECT_FALSE(sampler.transform_stats().has_value());
}

TEST(GradientSampler, RespectsDeadline) {
  // Unsatisfiable XOR chain forced to an odd parity while even: GD can never
  // emit anything, so the deadline is the only exit.
  cnf::Formula f = cnf::parse_dimacs_string(
      "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n");
  GradientSampler sampler(small_config());
  RunOptions options;
  options.min_solutions = 1;
  options.budget_ms = 150.0;
  util::Timer timer;
  const RunResult result = sampler.run(f, options);
  EXPECT_EQ(result.n_unique, 0u);
  EXPECT_LT(timer.milliseconds(), 5000.0);
}

TEST(GradientSampler, BudgetStopsTheHarvesterAndAmplifierToo) {
  // A 1 ms budget expires while the first round's randomize() fills a
  // batch-65536 engine.  The harvester and the amplifier poll the same
  // budgeted token as the round loop, so no row is validated and no base
  // is amplified; polling only at iteration boundaries would validate the
  // whole iteration-0 batch and amplify every base it banked.
  const benchgen::Instance instance =
      benchgen::make_instance("or-100-20-8-UC-10");
  GradientConfig config;
  config.batch = 65536;
  config.amplify.enabled = true;
  GradientSampler sampler(config);
  RunOptions options;
  options.min_solutions = 0;  // the budget is the only stop
  options.budget_ms = 1.0;
  const RunResult result = sampler.run(instance.formula, options);
  EXPECT_EQ(sampler.extras().rows_validated, 0u);
  EXPECT_EQ(sampler.extras().amplified_candidates, 0u);
  EXPECT_EQ(result.n_unique, 0u);
}

TEST(GradientSampler, TransformStatsExposed) {
  const cnf::Formula f = small_formula();
  GradientSampler sampler(small_config());
  (void)sampler.run(f, fast_options());
  ASSERT_TRUE(sampler.transform_stats().has_value());
  EXPECT_GT(sampler.transform_stats()->cnf_ops, 0u);
  EXPECT_GT(sampler.extras().engine_memory_bytes, 0u);
}

TEST(GradientSampler, SetupTimeSeparatedFromSampling) {
  const cnf::Formula f = small_formula();
  GradientSampler sampler(small_config());
  const RunResult result = sampler.run(f, fast_options());
  EXPECT_GE(result.setup_ms, 0.0);
  EXPECT_GT(result.elapsed_ms, 0.0);
}

TEST(GradientSampler, ThroughputMetricConsistent) {
  const cnf::Formula f = small_formula();
  GradientSampler sampler(small_config());
  const RunResult result = sampler.run(f, fast_options(20));
  EXPECT_NEAR(result.throughput(),
              static_cast<double>(result.n_unique) / (result.elapsed_ms / 1e3),
              1e-9);
}

TEST(GradientSampler, LargerBatchNoWorse) {
  // On an easy instance a bigger batch should reach the target in no more
  // rounds (sanity check of batch plumbing, not a performance assertion).
  const cnf::Formula f = small_formula();
  GradientConfig big = small_config();
  big.batch = 1024;
  GradientSampler sampler(big);
  const RunResult result = sampler.run(f, fast_options(20));
  EXPECT_GE(result.n_unique, 20u);
  EXPECT_EQ(result.n_invalid, 0u);
}

TEST(GradientSampler, SolvesTseitinStructuredInstance) {
  // A deeper structured instance (the transformation actually matters):
  // 3-chain circuit with a MUX, Tseitin-encoded.
  circuit::Circuit c;
  const auto s = c.add_input();
  const auto d1 = c.add_input();
  const auto d0 = c.add_input();
  auto cur = c.add_gate(circuit::GateType::kNot, {s});
  cur = c.add_gate(circuit::GateType::kBuf, {cur});
  const auto t1 = c.add_gate(circuit::GateType::kAnd, {cur, d1});
  const auto ns = c.add_gate(circuit::GateType::kNot, {cur});
  const auto t0 = c.add_gate(circuit::GateType::kAnd, {ns, d0});
  const auto mux = c.add_gate(circuit::GateType::kOr, {t1, t0});
  c.add_output(mux, true);
  const auto enc = circuit::tseitin_encode(c);

  GradientSampler sampler(small_config());
  RunOptions options = fast_options(3);
  const RunResult result = sampler.run(enc.formula, options);
  EXPECT_GE(result.n_unique, 3u);
  EXPECT_EQ(result.n_invalid, 0u);
}

// Parameterized sweep: batch sizes x instances, everything must stay valid.
class GradientSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(GradientSweep, ValidAcrossBatchAndSeeds) {
  const auto [batch, seed] = GetParam();
  const cnf::Formula f = small_formula();
  GradientConfig config = small_config();
  config.batch = batch;
  GradientSampler sampler(config);
  RunOptions options = fast_options(8);
  options.seed = static_cast<std::uint64_t>(seed) * 7 + 1;
  const RunResult result = sampler.run(f, options);
  EXPECT_EQ(result.n_invalid, 0u);
  EXPECT_GE(result.n_unique, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    BatchSeedGrid, GradientSweep,
    ::testing::Combine(::testing::Values<std::size_t>(64, 100, 257, 1024),
                       ::testing::Range(0, 3)));

}  // namespace
}  // namespace hts::sampler
