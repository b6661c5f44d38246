// Tests for Algorithm 1 (CNF -> multi-level multi-output function):
// signature recovery for every primary gate type, the paper's worked
// examples (Eq. 5 MUX block, the Fig. 1 instance), under-specified blocks,
// constant promotion, randomized equisatisfiability round-trips against
// brute-force enumeration, and output fingerprints on the Table II instances.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "benchgen/families.hpp"
#include "circuit/tseitin.hpp"
#include "cnf/dimacs.hpp"
#include "solver/brute.hpp"
#include "transform/transform.hpp"
#include "util/rng.hpp"

namespace hts::transform {
namespace {

using circuit::GateType;
using cnf::Lit;
using cnf::Var;

/// Counts models of `formula` and compares with the number of distinct
/// satisfying input assignments of the transformed circuit (the two must
/// coincide: the transformation is a bijection on solutions).
void expect_equisatisfiable(const cnf::Formula& formula, const Result& result) {
  ASSERT_LE(formula.n_vars(), solver::kMaxBruteVars);
  const std::uint64_t cnf_models = solver::count_models(formula);

  const circuit::Circuit& c = result.circuit;
  ASSERT_LE(c.n_inputs(), 22u);
  std::uint64_t circuit_models = 0;
  std::vector<std::uint8_t> in(c.n_inputs());
  for (std::uint64_t bits = 0; bits < (1ULL << c.n_inputs()); ++bits) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>((bits >> i) & 1);
    }
    const auto values = c.eval(in);
    if (!c.outputs_satisfied(values)) continue;
    ++circuit_models;
    // Every circuit solution must project to a CNF model.
    EXPECT_TRUE(formula.satisfied_by(result.project(values)));
  }
  EXPECT_EQ(circuit_models, cnf_models);
}

// --- primary gate signatures (Eqs. 1-4) -----------------------------------------

TEST(Transform, RecoversInverter) {
  // Eq. (1): f(x) = ~x as (f | x)(~f | ~x); vars: x=1, f=2 (DIMACS).
  const auto f = cnf::parse_dimacs_string("p cnf 2 2\n2 1 0\n-2 -1 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  EXPECT_EQ(r.stats.n_flushed_blocks, 0u);
  expect_equisatisfiable(f, r);
}

TEST(Transform, RecoversWideOr) {
  // Eq. (2) with n=4: f = x1|x2|x3|x4, f is var 5.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 5 5\n-5 1 2 3 4 0\n5 -1 0\n5 -2 0\n5 -3 0\n5 -4 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  // One OR gate of 4 fanins: 3 ops vs CNF's many.
  EXPECT_GT(r.stats.ops_reduction(), 1.0);
  expect_equisatisfiable(f, r);
}

TEST(Transform, RecoversWideAnd) {
  // Eq. (3) with n=3: f = x1&x2&x3, f is var 4.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 4 4\n4 -1 -2 -3 0\n-4 1 0\n-4 2 0\n-4 3 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  expect_equisatisfiable(f, r);
}

TEST(Transform, RecoversXor2) {
  // Eq. (4): f = x1 ^ x2 with f = var 3 -> 4 clauses.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 3 4\n-3 1 2 0\n-3 -1 -2 0\n3 -1 2 0\n3 1 -2 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  expect_equisatisfiable(f, r);
}

TEST(Transform, RecoversPaperEq5MuxBlock) {
  // The paper's Eq. (5) from '75-10-1-q':
  // x5 = (x107 & x4) | (x108 & ~x4), renumbered to x4->1, x107->2, x108->3,
  // x5->4.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 4 4\n-1 -2 4 0\n-1 2 -4 0\n1 -3 4 0\n1 3 -4 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  EXPECT_EQ(r.roles[3], VarRole::kIntermediate);  // x5 became the gate output
  EXPECT_EQ(r.roles[0], VarRole::kPrimaryInput);
  EXPECT_EQ(r.roles[1], VarRole::kPrimaryInput);
  EXPECT_EQ(r.roles[2], VarRole::kPrimaryInput);
  expect_equisatisfiable(f, r);
}

// --- constants, under-specification, flushing -----------------------------------

TEST(Transform, UnitClauseOnFreshVarBecomesOutput) {
  const auto f = cnf::parse_dimacs_string("p cnf 1 1\n1 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.roles[0], VarRole::kPrimaryOutput);
  EXPECT_EQ(r.stats.n_const_promotions, 1u);
  expect_equisatisfiable(f, r);
}

TEST(Transform, NegativeUnitClausePinsToZero) {
  const auto f = cnf::parse_dimacs_string("p cnf 2 2\n-1 0\n1 2 0\n");
  const Result r = transform_cnf(f);
  expect_equisatisfiable(f, r);
}

TEST(Transform, UnitOnIntermediatePromotesToOutput) {
  // Fig. 1 tail: gate definition for x10-like variable, then unit clause.
  // y = a | b (y=3), then (y).
  const auto f = cnf::parse_dimacs_string(
      "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  EXPECT_EQ(r.roles[2], VarRole::kPrimaryOutput);
  EXPECT_EQ(r.n_primary_outputs(), 1u);
  expect_equisatisfiable(f, r);
}

TEST(Transform, UnderSpecifiedBareClauseFlushes) {
  // (x1 | x2) with no defining structure: the paper's under-specified case —
  // an auxiliary output constrained to 1.
  const auto f = cnf::parse_dimacs_string("p cnf 2 1\n1 2 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.n_flushed_blocks, 1u);
  EXPECT_EQ(r.n_primary_outputs(), 1u);
  expect_equisatisfiable(f, r);
}

TEST(Transform, TautologicalBlockDropped) {
  const auto f = cnf::parse_dimacs_string("p cnf 2 1\n1 -1 2 0\n");
  const Result r = transform_cnf(f);
  EXPECT_FALSE(r.proven_unsat);
  expect_equisatisfiable(f, r);
}

TEST(Transform, ContradictionDetected) {
  const auto f = cnf::parse_dimacs_string("p cnf 1 2\n1 0\n-1 0\n");
  const Result r = transform_cnf(f);
  // Either flagged during flush or represented as conflicting outputs; both
  // leave the circuit with zero satisfying assignments.
  if (!r.proven_unsat) {
    expect_equisatisfiable(f, r);
  } else {
    EXPECT_EQ(solver::count_models(f), 0u);
  }
}

TEST(Transform, BufferChainCollapses) {
  // x2=x1, x3=x2, x4=x3 as BUF signatures; then unit (x4).
  const auto f = cnf::parse_dimacs_string(
      "p cnf 4 7\n-1 2 0\n1 -2 0\n-2 3 0\n2 -3 0\n-3 4 0\n3 -4 0\n4 0\n");
  const Result r = transform_cnf(f);
  expect_equisatisfiable(f, r);
  // The whole chain is functionally one wire; at most a couple of ops.
  EXPECT_LE(r.stats.circuit_ops, 2u);
}

TEST(Transform, PaperFigure1Instance) {
  // The full CNF of Fig. 1(a) (14 vars, 21 clauses).
  const auto f = cnf::parse_dimacs_string(
      "p cnf 14 21\n"
      "-1 -2 0\n1 2 0\n"          // x2 = ~x1
      "-2 3 0\n2 -3 0\n"          // x3 = x2
      "-3 4 0\n3 -4 0\n"          // x4 = x3
      "-4 -11 5 0\n-4 11 -5 0\n"  // x5 = MUX(x4; x11, x12)
      "4 -12 5 0\n4 12 -5 0\n"
      "-6 7 0\n6 -7 0\n"          // x7 = x6
      "-7 8 0\n7 -8 0\n"          // x8 = x7
      "-8 -9 0\n8 9 0\n"          // x9 = ~x8
      "-9 -13 10 0\n-9 13 -10 0\n"  // x10 = MUX(x9; x13, x14)
      "9 -14 10 0\n9 14 -10 0\n"
      "10 0\n");                  // x10 = 1
  const Result r = transform_cnf(f);
  EXPECT_FALSE(r.proven_unsat);
  // x10 pinned to 1; exactly one constrained output.
  EXPECT_EQ(r.n_primary_outputs(), 1u);
  EXPECT_EQ(r.roles[9], VarRole::kPrimaryOutput);
  // Unconstrained MUX cone (x5) exists: its output is an intermediate.
  EXPECT_EQ(r.roles[4], VarRole::kIntermediate);
  expect_equisatisfiable(f, r);
  // CNF ops vs circuit ops: the paper reports ~4x reductions on this shape.
  EXPECT_GT(r.stats.ops_reduction(), 2.0);
}

TEST(Transform, ProjectReconstructsOriginalVars) {
  const auto f = cnf::parse_dimacs_string(
      "p cnf 3 4\n-3 1 2 0\n3 -1 0\n3 -2 0\n3 0\n");
  const Result r = transform_cnf(f);
  // Walk all circuit input assignments; projections must assign all 3 vars.
  std::vector<std::uint8_t> in(r.circuit.n_inputs());
  for (std::uint64_t bits = 0; bits < (1ULL << in.size()); ++bits) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>((bits >> i) & 1);
    }
    const auto values = r.circuit.eval(in);
    const cnf::Assignment assignment = r.project(values);
    ASSERT_EQ(assignment.size(), 3u);
    if (r.circuit.outputs_satisfied(values)) {
      EXPECT_TRUE(f.satisfied_by(assignment));
    }
  }
}

TEST(Transform, FreeVariablesBecomeInputs) {
  // Var 2 unused by any clause: still needs a projection slot.
  const auto f = cnf::parse_dimacs_string("p cnf 3 1\n1 3 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.var_signal.size(), 3u);
  for (Var v = 0; v < 3; ++v) {
    EXPECT_NE(r.var_signal[v], circuit::kNoSignal);
  }
  expect_equisatisfiable(f, r);
}

TEST(Transform, OpsReductionStatsPopulated) {
  const auto f = cnf::parse_dimacs_string(
      "p cnf 5 5\n-5 1 2 3 4 0\n5 -1 0\n5 -2 0\n5 -3 0\n5 -4 0\n");
  const Result r = transform_cnf(f);
  EXPECT_EQ(r.stats.cnf_ops, f.op_count_2input());
  EXPECT_EQ(r.stats.circuit_ops, r.circuit.op_count_2input());
  EXPECT_GE(r.stats.transform_ms, 0.0);
}

// --- randomized round-trips -----------------------------------------------------

class TransformRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TransformRoundTrip, RandomCircuitTseitinExtractEquisat) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  // Random multi-level circuit -> Tseitin CNF -> Algorithm 1 -> compare
  // model counts with brute force (exact equisatisfiability, bijection).
  circuit::Circuit c;
  const std::size_t n_in = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < n_in; ++i) c.add_input();
  const int n_gates = 3 + static_cast<int>(rng.next_below(6));
  for (int g = 0; g < n_gates; ++g) {
    const auto pick = [&] {
      return static_cast<circuit::SignalId>(rng.next_below(c.n_signals()));
    };
    const circuit::SignalId a = pick();
    circuit::SignalId b = pick();
    switch (rng.next_below(6)) {
      case 0:
        c.add_gate(GateType::kNot, {a});
        break;
      case 1:
        c.add_gate(GateType::kBuf, {a});
        break;
      case 2:
        if (a == b) b = pick();
        if (a == b) {
          c.add_gate(GateType::kNot, {a});
        } else {
          c.add_gate(GateType::kAnd, {a, b});
        }
        break;
      case 3:
        if (a == b) b = pick();
        if (a == b) {
          c.add_gate(GateType::kBuf, {a});
        } else {
          c.add_gate(GateType::kOr, {a, b});
        }
        break;
      case 4:
        if (a == b) b = pick();
        if (a == b) {
          c.add_gate(GateType::kNot, {a});
        } else {
          c.add_gate(GateType::kXor, {a, b});
        }
        break;
      default: {
        // 3-input OR for wider signatures.
        circuit::SignalId x = pick();
        if (x == a || x == b) x = pick();
        std::vector<circuit::SignalId> fanins{a, b, x};
        std::sort(fanins.begin(), fanins.end());
        fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
        if (fanins.size() == 1) {
          c.add_gate(GateType::kBuf, {fanins[0]});
        } else {
          c.add_gate(GateType::kOr, fanins);
        }
        break;
      }
    }
  }
  // Constrain the last signal to a reachable value (simulate a witness).
  std::vector<std::uint8_t> witness_in(n_in);
  for (auto& bit : witness_in) bit = rng.next_bool() ? 1 : 0;
  const auto witness_values = c.eval(witness_in);
  const auto last = static_cast<circuit::SignalId>(c.n_signals() - 1);
  c.add_output(last, witness_values[last] != 0);

  const auto enc = tseitin_encode(c);
  ASSERT_LE(enc.formula.n_vars(), solver::kMaxBruteVars);
  const Result r = transform_cnf(enc.formula);
  ASSERT_FALSE(r.proven_unsat);  // witness guarantees satisfiability
  expect_equisatisfiable(enc.formula, r);
  // The extraction must never *increase* op count vs the flat CNF.
  EXPECT_LE(r.stats.circuit_ops, r.stats.cnf_ops);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TransformRoundTrip, ::testing::Range(0, 40));

TEST(Transform, ScrambledClauseOrderStaysEquisatisfiable) {
  // Clause order affects which definitions are discovered, never soundness.
  util::Rng rng(2024);
  const auto base = cnf::parse_dimacs_string(
      "p cnf 4 7\n-1 2 0\n1 -2 0\n-2 -3 0\n2 3 0\n-3 4 0\n3 -4 0\n4 0\n");
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<cnf::Clause> clauses = base.clauses();
    rng.shuffle(clauses);
    cnf::Formula shuffled(base.n_vars());
    for (auto& clause : clauses) shuffled.add_clause(clause);
    const Result r = transform_cnf(shuffled);
    if (!r.proven_unsat) expect_equisatisfiable(shuffled, r);
  }
}

// --- output fingerprints pinned across commits ------------------------------------
//
// One FNV-1a hash per instance over everything the transform hands its
// callers, in this order: the signal count, each gate's type and fanins,
// each output's signal and target, var_signal, roles, input_vars and
// proven_unsat.  The constants were recorded from an earlier commit, so any
// change to what Algorithm 1 extracts moves a hash.  Re-record one only for
// a deliberate change to the transform's output.

std::uint64_t output_fingerprint(const Result& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= static_cast<std::uint8_t>(word >> shift);
      hash *= 0x100000001b3ULL;
    }
  };
  const circuit::Circuit& c = result.circuit;
  mix(c.n_signals());
  for (circuit::SignalId s = 0; s < c.n_signals(); ++s) {
    const circuit::Gate& gate = c.gate(s);
    mix(static_cast<std::uint64_t>(gate.type));
    mix(gate.fanins.size());
    for (const circuit::SignalId fanin : gate.fanins) mix(fanin);
  }
  mix(c.outputs().size());
  for (const circuit::OutputConstraint& out : c.outputs()) {
    mix(out.signal);
    mix(out.target ? 1 : 0);
  }
  mix(result.var_signal.size());
  for (const circuit::SignalId s : result.var_signal) mix(s);
  mix(result.roles.size());
  for (const VarRole role : result.roles) mix(static_cast<std::uint64_t>(role));
  mix(result.input_vars.size());
  for (const Var v : result.input_vars) mix(v);
  mix(result.proven_unsat ? 1 : 0);
  return hash;
}

TEST(TransformFingerprint, Table2InstancesAtFullScale) {
  // All of Table II: about 3 s in a Release build on 4 vCPUs (Prod-32 takes
  // 0.8-0.9 s of it) and about 60 s in an ASan+UBSan Debug build.
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"or-50-10-7-UC-10", 0x1367eb15c152e6efULL},
      {"or-60-20-10-UC-10", 0x2f626098800f8fb3ULL},
      {"or-70-5-5-UC-10", 0x66cff91527b13e77ULL},
      {"or-100-20-8-UC-10", 0xa0354fcefc5b79ccULL},
      {"75-10-1-q", 0xcd5e86a9b6f324e9ULL},
      {"75-10-10-q", 0x5fec10b11286ab71ULL},
      {"90-10-1-q", 0x29b0beef3d05f995ULL},
      {"90-10-10-q", 0xdf6e17fa8d57f973ULL},
      {"s15850a_3_2", 0xb6397589fc8a2e07ULL},
      {"s15850a_7_4", 0xfb119ebe7740bc15ULL},
      {"s15850a_15_7", 0x0ba10cab5933b58aULL},
      {"Prod-8", 0xce4228fa8585ce13ULL},
      {"Prod-20", 0x075895d432716d38ULL},
      {"Prod-32", 0x8f5d5cb741ed5b9dULL},
  };
  for (const auto& [name, hash] : expected) {
    const benchgen::Instance instance = benchgen::make_instance(name);
    EXPECT_EQ(output_fingerprint(transform_cnf(instance.formula)), hash)
        << name;
  }
}

}  // namespace
}  // namespace hts::transform
