// Tests for CircuitSampler — direct sampling from circuit form (the paper's
// future-work suggestion): solutions meet output constraints, agree with the
// CNF pipeline on the same problem, and respect the input-indexed layout.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "circuit/tseitin.hpp"
#include "core/circuit_sampler.hpp"
#include "core/gradient_sampler.hpp"
#include "solver/brute.hpp"

namespace hts::sampler {
namespace {

using circuit::Circuit;
using circuit::GateType;
using circuit::SignalId;

/// out = (s & d1) | (~s & d0) forced to 1; 3 inputs.
Circuit mux_circuit() {
  Circuit c;
  const SignalId s = c.add_input("s");
  const SignalId d1 = c.add_input("d1");
  const SignalId d0 = c.add_input("d0");
  const SignalId t1 = c.add_gate(GateType::kAnd, {s, d1});
  const SignalId ns = c.add_gate(GateType::kNot, {s});
  const SignalId t0 = c.add_gate(GateType::kAnd, {ns, d0});
  c.add_output(c.add_gate(GateType::kOr, {t1, t0}), true);
  return c;
}

CircuitSamplerConfig fast_config() {
  CircuitSamplerConfig config;
  config.batch = 256;
  config.policy = tensor::Policy::kSerial;
  return config;
}

TEST(CircuitSampler, SolutionsMeetOutputConstraints) {
  const Circuit c = mux_circuit();
  CircuitSampler sampler(c, fast_config());
  RunOptions options;
  options.min_solutions = 4;  // the MUX has exactly 4 satisfying inputs
  options.budget_ms = 5000.0;
  options.store_limit = 16;
  const RunResult result = sampler.run(options);
  EXPECT_EQ(result.n_unique, 4u);
  for (const cnf::Assignment& inputs : result.solutions) {
    ASSERT_EQ(inputs.size(), 3u);
    const auto values = c.eval({inputs[0], inputs[1], inputs[2]});
    EXPECT_TRUE(c.outputs_satisfied(values));
  }
}

TEST(CircuitSampler, ExhaustsSolutionSpaceExactly) {
  const Circuit c = mux_circuit();
  // Brute-force the reference: inputs where the MUX output is 1.
  std::set<std::vector<std::uint8_t>> expected;
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<std::uint8_t> in{
        static_cast<std::uint8_t>(bits & 1), static_cast<std::uint8_t>((bits >> 1) & 1),
        static_cast<std::uint8_t>((bits >> 2) & 1)};
    if (c.outputs_satisfied(c.eval(in))) expected.insert(in);
  }
  CircuitSampler sampler(c, fast_config());
  RunOptions options;
  options.min_solutions = expected.size();
  options.budget_ms = 5000.0;
  options.store_limit = 16;
  const RunResult result = sampler.run(options);
  std::set<std::vector<std::uint8_t>> found;
  for (const auto& s : result.solutions) found.insert({s[0], s[1], s[2]});
  EXPECT_EQ(found, expected);
}

TEST(CircuitSampler, SamplingSetReachesProjectedDedup) {
  // Regression: the configured sampling set used to be dropped on the floor
  // before reaching GdProblem, so projected dedup (and the amplifier's flip
  // support) never saw it.  Projecting the MUX onto {s, d1} merges the two
  // s=0, d0=1 witnesses: 4 full solutions, 3 projected classes.
  const Circuit c = mux_circuit();
  CircuitSamplerConfig config = fast_config();
  config.sampling_set = {0, 1};
  config.max_rounds = 8;
  CircuitSampler sampler(c, config);
  RunOptions options;
  options.min_solutions = 3;
  options.budget_ms = 5000.0;
  options.store_limit = 16;
  const RunResult result = sampler.run(options);
  EXPECT_EQ(result.n_unique, 3u);
  std::set<std::vector<std::uint8_t>> projections;
  for (const auto& s : result.solutions) {
    EXPECT_TRUE(c.outputs_satisfied(c.eval({s[0], s[1], s[2]})));
    EXPECT_TRUE(projections.insert({s[0], s[1]}).second)
        << "duplicate projection delivered";
  }
  EXPECT_EQ(projections.size(), 3u);
}

TEST(CircuitSampler, AgreesWithCnfPipeline) {
  // The direct path and the Tseitin->transform->sample path must sample the
  // same input space.
  const Circuit c = mux_circuit();
  CircuitSampler direct(c, fast_config());
  RunOptions options;
  options.min_solutions = 4;
  options.budget_ms = 5000.0;
  options.store_limit = 16;
  const RunResult direct_result = direct.run(options);

  const auto enc = circuit::tseitin_encode(c);
  GradientConfig gd;
  gd.batch = 256;
  gd.policy = tensor::Policy::kSerial;
  GradientSampler via_cnf(gd);
  RunOptions cnf_options = options;
  cnf_options.verify_against_cnf = true;
  const RunResult cnf_result = via_cnf.run(enc.formula, cnf_options);

  EXPECT_EQ(direct_result.n_unique, 4u);
  EXPECT_EQ(cnf_result.n_unique, 4u);
  EXPECT_EQ(cnf_result.n_invalid, 0u);
}

TEST(CircuitSampler, UnsatisfiableConstraintYieldsNothing) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId na = c.add_gate(GateType::kNot, {a});
  const SignalId never = c.add_gate(GateType::kAnd, {a, na});
  c.add_output(never, true);
  CircuitSampler sampler(c, fast_config());
  RunOptions options;
  options.min_solutions = 1;
  options.budget_ms = 150.0;
  const RunResult result = sampler.run(options);
  EXPECT_EQ(result.n_unique, 0u);
  EXPECT_TRUE(result.timed_out);
}

TEST(CircuitSampler, MaxRoundsBoundsWork) {
  const Circuit c = mux_circuit();
  CircuitSamplerConfig config = fast_config();
  config.max_rounds = 1;
  CircuitSampler sampler(c, config);
  RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = -1.0;
  const RunResult result = sampler.run(options);
  EXPECT_EQ(sampler.extras().rounds, 1u);
  EXPECT_GT(result.n_valid, 0u);
}

TEST(CircuitSampler, RunWithNoBoundIsRejected) {
  const Circuit c = mux_circuit();
  CircuitSamplerConfig config = fast_config();
  RunOptions options;
  options.min_solutions = 1;
  options.budget_ms = 0.0;
  EXPECT_THROW((void)CircuitSampler(c, config).run(options),
               std::invalid_argument);
  config.max_rounds = 1;  // a round cap is a bound
  EXPECT_GE(CircuitSampler(c, config).run(options).n_unique, 1u);
}

TEST(CircuitSampler, MalformedConfigIsRejected) {
  // Bounds lit_weights by the circuit's inputs (its pseudo-variables) and
  // rejects batch 0 before the engine's invariant could abort the process.
  const Circuit c = mux_circuit();
  for (const bool zero_batch : {true, false}) {
    CircuitSamplerConfig config = fast_config();
    if (zero_batch) {
      config.batch = 0;
    } else {
      config.lit_weights = {{3, false, 1.0f}};  // inputs are 0..2
    }
    CircuitSampler sampler(c, config);
    EXPECT_THROW((void)sampler.run(RunOptions{}), std::invalid_argument);
  }
}

TEST(CircuitSampler, MultiOutputConstraints) {
  // Two constrained outputs with opposite targets.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId x = c.add_gate(GateType::kXor, {a, b});
  const SignalId n = c.add_gate(GateType::kAnd, {a, b});
  c.add_output(x, true);   // a != b
  c.add_output(n, false);  // not both
  CircuitSampler sampler(c, fast_config());
  RunOptions options;
  options.min_solutions = 2;  // exactly (1,0) and (0,1)
  options.budget_ms = 5000.0;
  options.store_limit = 8;
  const RunResult result = sampler.run(options);
  EXPECT_EQ(result.n_unique, 2u);
  for (const auto& s : result.solutions) {
    EXPECT_NE(s[0], s[1]);
  }
}

}  // namespace
}  // namespace hts::sampler
