// Tests for the benchmark-instance generators: witnesses satisfy the
// encodings, generation is deterministic, sizes land in the published
// ballparks, name dispatch covers the full grammar, bad scales are
// rejected, and the transformation digests every family.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "benchgen/families.hpp"
#include "benchgen/suite.hpp"
#include "transform/transform.hpp"

namespace hts::benchgen {
namespace {

GenOptions tiny_scale() {
  GenOptions options;
  options.scale = 0.02;  // shrink the big families for unit-test speed
  return options;
}

TEST(Suite, ManifestSizes) {
  EXPECT_EQ(table2_names().size(), 14u);
  EXPECT_EQ(ablation_names().size(), 4u);
  const std::vector<std::string> suite = suite60_names();
  EXPECT_EQ(suite.size(), 60u);
  // No duplicates in the 60-instance manifest.
  const std::set<std::string> unique(suite.begin(), suite.end());
  EXPECT_EQ(unique.size(), 60u);
}

TEST(Suite, AblationSubsetOfTable2) {
  const auto t2 = table2_names();
  for (const auto& name : ablation_names()) {
    EXPECT_NE(std::find(t2.begin(), t2.end(), name), t2.end()) << name;
  }
}

TEST(Families, WitnessSatisfiesEveryTable2Instance) {
  for (const auto& name : table2_names()) {
    const Instance instance = make_instance(name, tiny_scale());
    EXPECT_EQ(instance.name, name);
    ASSERT_EQ(instance.witness.size(), instance.formula.n_vars()) << name;
    EXPECT_TRUE(instance.formula.satisfied_by(instance.witness)) << name;
  }
}

TEST(Families, DeterministicGeneration) {
  const Instance a = make_instance("or-50-10-7-UC-10");
  const Instance b = make_instance("or-50-10-7-UC-10");
  EXPECT_EQ(a.formula.n_vars(), b.formula.n_vars());
  EXPECT_EQ(a.formula.n_clauses(), b.formula.n_clauses());
  ASSERT_EQ(a.formula.n_clauses(), b.formula.n_clauses());
  for (std::size_t i = 0; i < a.formula.n_clauses(); ++i) {
    EXPECT_EQ(a.formula.clause(i), b.formula.clause(i)) << i;
  }
  EXPECT_EQ(a.witness, b.witness);
}

TEST(Families, SeedMixChangesInstance) {
  GenOptions mixed;
  mixed.seed_mix = 7;
  const Instance a = make_instance("75-10-1-q");
  const Instance b = make_instance("75-10-1-q", mixed);
  // Same structure family and size class, different random draw.
  bool identical = a.formula.n_clauses() == b.formula.n_clauses();
  if (identical) {
    for (std::size_t i = 0; i < a.formula.n_clauses(); ++i) {
      if (a.formula.clause(i) != b.formula.clause(i)) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(Families, OrInstanceShape) {
  const Instance instance = make_instance("or-50-10-7-UC-10");
  EXPECT_EQ(instance.family, "or");
  // Published: 50 PIs, 4 POs, 100 vars, 254 clauses — match the order of
  // magnitude, not the digits.
  EXPECT_NEAR(static_cast<double>(instance.circuit.n_inputs()), 50.0, 15.0);
  EXPECT_GE(instance.circuit.outputs().size(), 2u);
  EXPECT_LE(instance.circuit.outputs().size(), 8u);
  EXPECT_NEAR(static_cast<double>(instance.formula.n_vars()), 100.0, 60.0);
  EXPECT_NEAR(static_cast<double>(instance.formula.n_clauses()), 254.0, 160.0);
}

TEST(Families, QInstanceShape) {
  const Instance instance = make_instance("75-10-1-q");
  EXPECT_EQ(instance.family, "q");
  EXPECT_EQ(instance.circuit.outputs().size(), 1u);  // single PO like the suite
  // Published: 452 vars, 443 clauses, 83 PIs.
  EXPECT_NEAR(static_cast<double>(instance.formula.n_vars()), 452.0, 200.0);
  EXPECT_GT(instance.circuit.n_inputs(), 10u);
  EXPECT_LT(instance.circuit.n_inputs(), 200u);
  // Chain-heavy: depth must be substantial.
  EXPECT_GT(instance.circuit.depth(), 30u);
}

TEST(Families, QVariantChangesPiCount) {
  const Instance low = make_instance("90-10-1-q");
  const Instance high = make_instance("90-10-10-q");
  // Higher variant -> lower MUX rate -> fewer PIs (mirrors 51 vs 31).
  EXPECT_GT(low.circuit.n_inputs(), high.circuit.n_inputs());
}

TEST(Families, S15850Shape) {
  const Instance instance = make_instance("s15850a_3_2", tiny_scale());
  EXPECT_EQ(instance.family, "s15850a");
  EXPECT_LE(instance.circuit.outputs().size(), 3u);
  EXPECT_GE(instance.circuit.outputs().size(), 1u);
  EXPECT_TRUE(instance.formula.satisfied_by(instance.witness));
}

TEST(Families, S15850FullScaleMatchesPublishedSizes) {
  const Instance instance = make_instance("s15850a_15_7");
  // Published: 600 PIs, ~10995 vars, ~24836 clauses.
  EXPECT_EQ(instance.circuit.n_inputs(), 600u);
  EXPECT_NEAR(static_cast<double>(instance.formula.n_vars()), 10995.0, 2500.0);
  EXPECT_NEAR(static_cast<double>(instance.formula.n_clauses()), 24836.0, 8000.0);
}

TEST(Families, ProdShape) {
  const Instance instance = make_instance("Prod-8", tiny_scale());
  EXPECT_EQ(instance.family, "prod");
  EXPECT_EQ(instance.circuit.outputs().size(), 2u);  // the published 2 POs
  EXPECT_TRUE(instance.formula.satisfied_by(instance.witness));
}

TEST(Families, ProdClauseDensityHigh) {
  const Instance instance = make_instance("Prod-8", GenOptions{0.1, 0});
  const double ratio = static_cast<double>(instance.formula.n_clauses()) /
                       static_cast<double>(instance.formula.n_vars());
  // Published Prod-8 ratio is ~5.0; wide gates + XORs should push past 3.
  EXPECT_GT(ratio, 3.0);
}

TEST(Families, BadNamesRejected) {
  EXPECT_THROW((void)make_instance("nonsense"), std::invalid_argument);
  EXPECT_THROW((void)make_instance("or-xx-1-1-UC-1"), std::invalid_argument);
  EXPECT_THROW((void)make_instance("Prod-abc"), std::invalid_argument);
}

TEST(Families, ScaleMustBeFiniteAndPositive) {
  // The s15850a and Prod builders cast scaled counts to std::size_t, which
  // is undefined for a negative, NaN, infinite or overflowing product, so
  // such scales (and zero) must be refused before any cast.
  for (const char* name : {"s15850a_3_2", "Prod-8"}) {
    for (const double scale : {-0.5, 0.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(), 1e300}) {
      GenOptions options;
      options.scale = scale;
      EXPECT_THROW((void)make_instance(name, options), std::invalid_argument)
          << name << " at scale " << scale;
    }
    GenOptions small;
    small.scale = 0.05;  // what the sampler suites use
    EXPECT_NO_THROW((void)make_instance(name, small)) << name;
  }
}

TEST(Families, Suite60AllGenerate) {
  for (const auto& name : suite60_names()) {
    GenOptions options = tiny_scale();
    const Instance instance = make_instance(name, options);
    EXPECT_TRUE(instance.formula.satisfied_by(instance.witness)) << name;
    EXPECT_GT(instance.formula.n_clauses(), 0u) << name;
  }
}

TEST(Families, TransformDigestsEachFamily) {
  // Algorithm 1 must process one representative of each family, recover
  // gates, and reduce the op count.
  for (const auto& name :
       {"or-50-10-7-UC-10", "75-10-1-q", "s15850a_3_2", "Prod-8"}) {
    const Instance instance = make_instance(name, tiny_scale());
    const auto result = transform::transform_cnf(instance.formula);
    EXPECT_FALSE(result.proven_unsat) << name;
    EXPECT_GT(result.stats.n_gate_definitions, 0u) << name;
    EXPECT_GT(result.stats.ops_reduction(), 1.0) << name;
    // The witness must satisfy the circuit's constraints when replayed.
    std::vector<std::uint8_t> inputs;
    inputs.reserve(result.circuit.n_inputs());
    for (std::size_t i = 0; i < result.circuit.n_inputs(); ++i) {
      const cnf::Var v = result.input_vars[i];
      inputs.push_back(instance.witness[v]);
    }
    const auto values = result.circuit.eval(inputs);
    EXPECT_TRUE(result.circuit.outputs_satisfied(values)) << name;
  }
}

}  // namespace
}  // namespace hts::benchgen
