// Unit tests for the tape optimizer's common-subexpression-elimination
// pass: duplicate (op, a, b) triples collapse — including commutative
// operand order — OptStats counts them, chains of duplicates cascade, and
// optimized-vs-raw forward activations stay bit-identical (the families-wide
// parity contract lives in engine_parity_test; here we pin the CSE-specific
// cases and that real Tseitin-shaped circuits give the pass work to do).

#include <gtest/gtest.h>

#include "benchgen/families.hpp"
#include "circuit/circuit.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "transform/transform.hpp"
#include "util/rng.hpp"

namespace hts::prob {
namespace {

using circuit::Circuit;
using circuit::GateType;
using circuit::SignalId;

/// Raw-vs-optimized forward parity with the exact sigmoid must be bitwise.
void expect_bit_identical_outputs(const Circuit& circuit) {
  const CompiledCircuit raw(circuit, CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(circuit);
  Engine::Config config;
  config.batch = 128;
  config.policy = tensor::Policy::kSerial;
  config.fast_sigmoid = false;
  Engine eng_raw(raw, config);
  Engine eng_opt(opt, config);
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  eng_raw.forward_only();
  eng_opt.forward_only();
  ASSERT_EQ(raw.outputs().size(), opt.outputs().size());
  for (std::size_t k = 0; k < raw.outputs().size(); ++k) {
    for (std::size_t r = 0; r < config.batch; ++r) {
      ASSERT_EQ(eng_raw.activation(raw.outputs()[k].slot, r),
                eng_opt.activation(opt.outputs()[k].slot, r))
          << "output " << k << " row " << r;
    }
  }
}

TEST(CseTest, IdenticalTriplesCollapse) {
  Circuit circuit;
  const SignalId a = circuit.add_input("a");
  const SignalId b = circuit.add_input("b");
  const SignalId x = circuit.add_gate(GateType::kAnd, {a, b});
  const SignalId y = circuit.add_gate(GateType::kAnd, {a, b});
  const SignalId out = circuit.add_gate(GateType::kXor, {x, y});
  circuit.add_output(out, false);  // x == y, so XOR must learn toward 0

  const CompiledCircuit opt(circuit);
  EXPECT_GE(opt.opt_stats().cse_eliminated, 1u);
  const CompiledCircuit raw(circuit, CompiledCircuit::Options{false, false});
  EXPECT_LT(opt.n_ops(), raw.n_ops());
  expect_bit_identical_outputs(circuit);
}

TEST(CseTest, CommutedOperandsCollapse) {
  for (const GateType type : {GateType::kAnd, GateType::kOr, GateType::kXor}) {
    Circuit circuit;
    const SignalId a = circuit.add_input("a");
    const SignalId b = circuit.add_input("b");
    const SignalId x = circuit.add_gate(type, {a, b});
    const SignalId y = circuit.add_gate(type, {b, a});  // swapped operands
    const SignalId out = circuit.add_gate(GateType::kAnd, {x, y});
    circuit.add_output(out, true);

    const CompiledCircuit opt(circuit);
    EXPECT_GE(opt.opt_stats().cse_eliminated, 1u)
        << circuit::gate_type_name(type);
    expect_bit_identical_outputs(circuit);
  }
}

TEST(CseTest, DuplicateChainsCascade) {
  // Two identical ANDs feed two NOTs: once the ANDs merge, the NOTs become
  // identical too, and one topological walk catches the cascade.
  Circuit circuit;
  const SignalId a = circuit.add_input("a");
  const SignalId b = circuit.add_input("b");
  const SignalId x = circuit.add_gate(GateType::kAnd, {a, b});
  const SignalId y = circuit.add_gate(GateType::kAnd, {b, a});
  const SignalId nx = circuit.add_gate(GateType::kNot, {x});
  const SignalId ny = circuit.add_gate(GateType::kNot, {y});
  const SignalId out = circuit.add_gate(GateType::kOr, {nx, ny});
  circuit.add_output(out, true);

  const CompiledCircuit opt(circuit);
  EXPECT_GE(opt.opt_stats().cse_eliminated, 2u);
  expect_bit_identical_outputs(circuit);
}

TEST(CseTest, DistinctTriplesSurvive) {
  Circuit circuit;
  const SignalId a = circuit.add_input("a");
  const SignalId b = circuit.add_input("b");
  const SignalId c = circuit.add_input("c");
  const SignalId x = circuit.add_gate(GateType::kAnd, {a, b});
  const SignalId y = circuit.add_gate(GateType::kAnd, {a, c});
  const SignalId z = circuit.add_gate(GateType::kOr, {a, b});
  const SignalId out =
      circuit.add_gate(GateType::kAnd, {x, y, z});
  circuit.add_output(out, true);

  const CompiledCircuit opt(circuit);
  EXPECT_EQ(opt.opt_stats().cse_eliminated, 0u);
  expect_bit_identical_outputs(circuit);
}

TEST(CseTest, TseitinHeavyFamiliesGiveCseWork) {
  // The wide families' ground-truth circuits duplicate structure (shared
  // module logic, repeated literal pairs), so the pass must remove ops.
  for (const char* name : {"s15850a_3_2", "Prod-8"}) {
    const benchgen::Instance instance = benchgen::make_instance(name);
    const CompiledCircuit opt(instance.circuit);
    const OptStats& stats = opt.opt_stats();
    EXPECT_GT(stats.cse_eliminated, 0u) << name;
    // Every removed op is attributed to exactly one pass counter.
    EXPECT_EQ(stats.ops_before - stats.ops_after,
              stats.copies_propagated + stats.consts_folded +
                  stats.cse_eliminated + stats.nots_fused + stats.ops_dead)
        << name;
  }
}

TEST(CseTest, TransformedTseitinCnfCollapsesDuplicateLogic) {
  // The paper's pipeline — Tseitin CNF recovered into a multi-level circuit
  // (Algorithm 1) — reintroduces duplicated gate structure that the plain
  // compile keeps: CSE must collapse some of it, bit-identically.
  for (const char* name : {"s15850a_3_2", "Prod-8"}) {
    const benchgen::Instance instance = benchgen::make_instance(name);
    const transform::Result transformed =
        transform::transform_cnf(instance.formula);
    ASSERT_FALSE(transformed.proven_unsat) << name;
    const CompiledCircuit opt(transformed.circuit);
    EXPECT_GT(opt.opt_stats().cse_eliminated, 0u) << name;
    expect_bit_identical_outputs(transformed.circuit);
  }
}

}  // namespace
}  // namespace hts::prob
