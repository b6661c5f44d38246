// Tests for the circuit IR: construction invariants, evaluation (scalar and
// 64x bit-parallel), cone/level analysis, op counting, expression lowering,
// and the Tseitin encoder (signature shapes + equisatisfiability against
// brute force).

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/expr_import.hpp"
#include "circuit/tseitin.hpp"
#include "solver/brute.hpp"
#include "util/rng.hpp"

namespace hts::circuit {
namespace {

/// a small mux circuit: out = (s & d1) | (~s & d0), constrained to 1.
struct MuxFixture {
  Circuit circuit;
  SignalId s, d1, d0, out;
  MuxFixture() {
    s = circuit.add_input("s");
    d1 = circuit.add_input("d1");
    d0 = circuit.add_input("d0");
    const SignalId t1 = circuit.add_gate(GateType::kAnd, {s, d1});
    const SignalId ns = circuit.add_gate(GateType::kNot, {s});
    const SignalId t0 = circuit.add_gate(GateType::kAnd, {ns, d0});
    out = circuit.add_gate(GateType::kOr, {t1, t0});
    circuit.add_output(out, true);
  }
};

TEST(Circuit, EvalMatchesMuxSemantics) {
  MuxFixture fx;
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<std::uint8_t> in{
        static_cast<std::uint8_t>(bits & 1), static_cast<std::uint8_t>((bits >> 1) & 1),
        static_cast<std::uint8_t>((bits >> 2) & 1)};
    const auto values = fx.circuit.eval(in);
    const bool expected = in[0] != 0 ? in[1] != 0 : in[2] != 0;
    EXPECT_EQ(values[fx.out] != 0, expected) << bits;
    EXPECT_EQ(fx.circuit.outputs_satisfied(values), expected);
  }
}

TEST(Circuit, Eval64AgreesWithScalarEval) {
  util::Rng rng(321);
  MuxFixture fx;
  // 64 random stimulus lanes packed into one word per input.
  std::vector<std::uint64_t> words(3);
  std::vector<std::vector<std::uint8_t>> lanes(64, std::vector<std::uint8_t>(3));
  for (int r = 0; r < 64; ++r) {
    for (int i = 0; i < 3; ++i) {
      lanes[r][i] = rng.next_bool() ? 1 : 0;
      if (lanes[r][i] != 0) words[i] |= 1ULL << r;
    }
  }
  const auto packed = fx.circuit.eval64(words);
  const std::uint64_t ok = fx.circuit.outputs_satisfied64(packed);
  for (int r = 0; r < 64; ++r) {
    const auto scalar = fx.circuit.eval(lanes[r]);
    for (SignalId sig = 0; sig < fx.circuit.n_signals(); ++sig) {
      EXPECT_EQ((packed[sig] >> r) & 1, scalar[sig]) << "lane " << r << " sig " << sig;
    }
    EXPECT_EQ((ok >> r) & 1, fx.circuit.outputs_satisfied(scalar) ? 1u : 0u);
  }
}

TEST(Circuit, AllGateTypesEvaluate) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId g_and = c.add_gate(GateType::kAnd, {a, b});
  const SignalId g_or = c.add_gate(GateType::kOr, {a, b});
  const SignalId g_xor = c.add_gate(GateType::kXor, {a, b});
  const SignalId g_nand = c.add_gate(GateType::kNand, {a, b});
  const SignalId g_nor = c.add_gate(GateType::kNor, {a, b});
  const SignalId g_xnor = c.add_gate(GateType::kXnor, {a, b});
  const SignalId g_not = c.add_gate(GateType::kNot, {a});
  const SignalId g_buf = c.add_gate(GateType::kBuf, {b});
  const SignalId k0 = c.add_const(false);
  const SignalId k1 = c.add_const(true);
  for (int bits = 0; bits < 4; ++bits) {
    const bool av = (bits & 1) != 0;
    const bool bv = (bits & 2) != 0;
    const auto v = c.eval({static_cast<std::uint8_t>(av), static_cast<std::uint8_t>(bv)});
    EXPECT_EQ(v[g_and] != 0, av && bv);
    EXPECT_EQ(v[g_or] != 0, av || bv);
    EXPECT_EQ(v[g_xor] != 0, av != bv);
    EXPECT_EQ(v[g_nand] != 0, !(av && bv));
    EXPECT_EQ(v[g_nor] != 0, !(av || bv));
    EXPECT_EQ(v[g_xnor] != 0, av == bv);
    EXPECT_EQ(v[g_not] != 0, !av);
    EXPECT_EQ(v[g_buf] != 0, bv);
    EXPECT_EQ(v[k0], 0);
    EXPECT_EQ(v[k1], 1);
  }
}

TEST(Circuit, WideGatesEvaluate) {
  Circuit c;
  std::vector<SignalId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(c.add_input());
  const SignalId wide_and = c.add_gate(GateType::kAnd, ins);
  const SignalId wide_or = c.add_gate(GateType::kOr, ins);
  const SignalId wide_xor = c.add_gate(GateType::kXor, ins);
  util::Rng rng(9);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> in(5);
    int ones = 0;
    for (auto& bit : in) {
      bit = rng.next_bool() ? 1 : 0;
      ones += bit;
    }
    const auto v = c.eval(in);
    EXPECT_EQ(v[wide_and] != 0, ones == 5);
    EXPECT_EQ(v[wide_or] != 0, ones > 0);
    EXPECT_EQ(v[wide_xor] != 0, (ones % 2) == 1);
  }
}

TEST(Circuit, ConstrainedConeSeparatesPaths) {
  // Two disjoint cones; only one is constrained (the paper's Fig. 1 split).
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId ca = c.add_gate(GateType::kNot, {a});  // unconstrained path
  const SignalId cb = c.add_gate(GateType::kNot, {b});
  c.add_output(cb, true);
  const auto cone = c.constrained_cone();
  EXPECT_FALSE(cone[a]);
  EXPECT_FALSE(cone[ca]);
  EXPECT_TRUE(cone[b]);
  EXPECT_TRUE(cone[cb]);
}

TEST(Circuit, LevelsAndDepth) {
  MuxFixture fx;
  const auto levels = fx.circuit.levels();
  EXPECT_EQ(levels[fx.s], 0u);
  EXPECT_EQ(levels[fx.out], fx.circuit.depth());
  EXPECT_EQ(fx.circuit.depth(), 3u);  // NOT -> AND -> OR on the d0 branch
}

TEST(Circuit, OpCount2Input) {
  MuxFixture fx;
  // AND + AND + OR = 3, NOT = 1.
  EXPECT_EQ(fx.circuit.op_count_2input(), 4u);

  Circuit wide;
  std::vector<SignalId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(wide.add_input());
  wide.add_gate(GateType::kNand, ins);
  EXPECT_EQ(wide.op_count_2input(), 6u);  // 5 ANDs + 1 NOT
}

TEST(Circuit, FaninOrderingEnforced) {
  Circuit c;
  const SignalId a = c.add_input();
  EXPECT_EQ(c.n_inputs(), 1u);
  // A gate may reference only existing signals; this is the acyclicity
  // guarantee. (Death test: HTS_CHECK aborts.)
  EXPECT_DEATH((void)c.add_gate(GateType::kNot, {static_cast<SignalId>(5)}), "fanin");
  (void)a;
}

// --- expression lowering -----------------------------------------------------

TEST(ExprImport, LowersDagWithSharing) {
  expr::Manager exprs;
  const expr::ExprId x = exprs.var(0);
  const expr::ExprId y = exprs.var(1);
  const expr::ExprId shared = exprs.mk_and2(x, y);
  const expr::ExprId root = exprs.mk_or2(shared, exprs.mk_xor2(shared, exprs.var(2)));

  Circuit c;
  std::unordered_map<std::uint32_t, SignalId> var_to_signal{
      {0, c.add_input()}, {1, c.add_input()}, {2, c.add_input()}};
  std::unordered_map<expr::ExprId, SignalId> memo;
  const SignalId out = lower_expr(c, exprs, root, var_to_signal, memo);

  // Shared AND lowered once: inputs(3) + AND + XOR + OR = 6 signals.
  EXPECT_EQ(c.n_signals(), 6u);
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<std::uint8_t> in{static_cast<std::uint8_t>(bits & 1),
                                 static_cast<std::uint8_t>((bits >> 1) & 1),
                                 static_cast<std::uint8_t>((bits >> 2) & 1)};
    EXPECT_EQ(c.eval(in)[out] != 0, exprs.eval(root, in)) << bits;
  }
}

TEST(ExprImport, LowersConstants) {
  expr::Manager exprs;
  Circuit c;
  std::unordered_map<std::uint32_t, SignalId> var_to_signal;
  std::unordered_map<expr::ExprId, SignalId> memo;
  const SignalId zero = lower_expr(c, exprs, exprs.const0(), var_to_signal, memo);
  const SignalId one = lower_expr(c, exprs, exprs.const1(), var_to_signal, memo);
  const auto v = c.eval({});
  EXPECT_EQ(v[zero], 0);
  EXPECT_EQ(v[one], 1);
}

// --- Tseitin -----------------------------------------------------------------

TEST(Tseitin, InverterSignatureMatchesEq1) {
  Circuit c;
  const SignalId x = c.add_input();
  (void)c.add_gate(GateType::kNot, {x});
  const auto enc = tseitin_encode(c);
  // Eq. (1): (f | x) & (~f | ~x) — two binary clauses.
  ASSERT_EQ(enc.formula.n_clauses(), 2u);
  EXPECT_EQ(enc.formula.clause(0).size(), 2u);
  EXPECT_EQ(enc.formula.clause(1).size(), 2u);
}

TEST(Tseitin, OrSignatureMatchesEq2) {
  Circuit c;
  std::vector<SignalId> ins;
  for (int i = 0; i < 3; ++i) ins.push_back(c.add_input());
  (void)c.add_gate(GateType::kOr, ins);
  const auto enc = tseitin_encode(c);
  // (~f | x1 | x2 | x3) + 3 binaries (f | ~xi).
  ASSERT_EQ(enc.formula.n_clauses(), 4u);
}

TEST(Tseitin, SolutionsMatchCircuitExactly) {
  // For every assignment of the CNF variables: satisfies CNF <=> consistent
  // circuit simulation meeting the output constraints.
  MuxFixture fx;
  const auto enc = tseitin_encode(fx.circuit);
  ASSERT_LE(enc.formula.n_vars(), solver::kMaxBruteVars);

  std::size_t cnf_models = 0;
  solver::for_each_model(enc.formula, [&](const cnf::Assignment&) {
    ++cnf_models;
    return true;
  });

  std::size_t circuit_models = 0;
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<std::uint8_t> in{
        static_cast<std::uint8_t>(bits & 1), static_cast<std::uint8_t>((bits >> 1) & 1),
        static_cast<std::uint8_t>((bits >> 2) & 1)};
    const auto values = fx.circuit.eval(in);
    if (fx.circuit.outputs_satisfied(values)) ++circuit_models;
  }
  // Tseitin is a bijection between circuit input solutions and CNF models.
  EXPECT_EQ(cnf_models, circuit_models);
}

TEST(Tseitin, WitnessFromSimulationSatisfies) {
  util::Rng rng(77);
  // Random circuits: simulate a random input, map signal values onto CNF
  // vars, check the witness satisfies the encoding (with output units).
  for (int trial = 0; trial < 25; ++trial) {
    Circuit c;
    const std::size_t n_in = 2 + rng.next_below(4);
    for (std::size_t i = 0; i < n_in; ++i) c.add_input();
    for (int g = 0; g < 12; ++g) {
      const auto pick = [&] {
        return static_cast<SignalId>(rng.next_below(c.n_signals()));
      };
      const SignalId a = pick();
      SignalId b = pick();
      const int type = static_cast<int>(rng.next_below(6));
      switch (type) {
        case 0:
          c.add_gate(GateType::kNot, {a});
          break;
        case 1:
          c.add_gate(GateType::kBuf, {a});
          break;
        default: {
          if (a == b) b = pick();
          if (a == b) {
            c.add_gate(GateType::kNot, {a});
            break;
          }
          const GateType types[4] = {GateType::kAnd, GateType::kOr, GateType::kXor,
                                     GateType::kNor};
          c.add_gate(types[type - 2], {a, b});
          break;
        }
      }
    }
    std::vector<std::uint8_t> in(n_in);
    for (auto& bit : in) bit = rng.next_bool() ? 1 : 0;
    const auto values = c.eval(in);
    c.add_output(static_cast<SignalId>(c.n_signals() - 1),
                 values[c.n_signals() - 1] != 0);

    const auto enc = tseitin_encode(c);
    cnf::Assignment witness(enc.formula.n_vars(), 0);
    for (SignalId s = 0; s < c.n_signals(); ++s) {
      witness[enc.signal_var[s]] = values[s];
    }
    EXPECT_TRUE(enc.formula.satisfied_by(witness)) << "trial " << trial;
  }
}

TEST(Tseitin, WideXorUsesChainVars) {
  Circuit c;
  std::vector<SignalId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(c.add_input());
  (void)c.add_gate(GateType::kXor, ins);
  const auto enc = tseitin_encode(c);
  // 5 signal vars + 2 chain vars.
  EXPECT_EQ(enc.formula.n_vars(), 7u);
  // 3 xor2 blocks x 4 clauses.
  EXPECT_EQ(enc.formula.n_clauses(), 12u);
}

TEST(Tseitin, XnorAndXorAgreeWithEval) {
  util::Rng rng(31);
  for (const GateType type : {GateType::kXor, GateType::kXnor}) {
    Circuit c;
    std::vector<SignalId> ins;
    for (int i = 0; i < 3; ++i) ins.push_back(c.add_input());
    const SignalId g = c.add_gate(type, ins);
    const auto enc = tseitin_encode(c);
    // Check: for each input assignment, exactly one completion of the
    // aux/chain vars satisfies the CNF, and it assigns g correctly.
    std::size_t models = 0;
    solver::for_each_model(enc.formula, [&](const cnf::Assignment& m) {
      // Simulate the circuit from the model's input values.
      std::vector<std::uint8_t> in(3);
      for (int i = 0; i < 3; ++i) in[i] = m[enc.signal_var[ins[i]]];
      const auto values = c.eval(in);
      EXPECT_EQ(m[enc.signal_var[g]], values[g]);
      ++models;
      return true;
    });
    EXPECT_EQ(models, 8u);  // one model per input assignment
  }
}

TEST(Tseitin, OutputUnitsRestrictModels) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId g = c.add_gate(GateType::kAnd, {a, b});
  c.add_output(g, true);
  const auto with_units = tseitin_encode(c, true);
  const auto without_units = tseitin_encode(c, false);
  EXPECT_EQ(solver::count_models(with_units.formula), 1u);   // a=b=1
  EXPECT_EQ(solver::count_models(without_units.formula), 4u);
}

}  // namespace
}  // namespace hts::circuit
