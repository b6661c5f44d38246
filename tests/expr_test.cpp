// Tests for the expression engine: construction rules, truth tables,
// Quine-McCluskey minimization, negation, equivalence, and the
// simplification entry point.  Includes randomized property sweeps checking
// that every algebraic transformation preserves semantics.

#include <gtest/gtest.h>

#include "expr/expr.hpp"
#include "expr/qm.hpp"
#include "expr/truth_table.hpp"
#include "util/rng.hpp"

namespace hts::expr {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  Manager mgr;
  ExprId a = mgr.var(0);
  ExprId b = mgr.var(1);
  ExprId c = mgr.var(2);
};

// --- truth tables ------------------------------------------------------------

TEST(TruthTable, ProjectionPatterns) {
  const TruthTable x0 = TruthTable::projection(2, 0);
  const TruthTable x1 = TruthTable::projection(2, 1);
  // rows: 00 01 10 11 (bit j of the row index = var j)
  EXPECT_FALSE(x0.get(0));
  EXPECT_TRUE(x0.get(1));
  EXPECT_FALSE(x0.get(2));
  EXPECT_TRUE(x0.get(3));
  EXPECT_FALSE(x1.get(0));
  EXPECT_FALSE(x1.get(1));
  EXPECT_TRUE(x1.get(2));
  EXPECT_TRUE(x1.get(3));
}

TEST(TruthTable, ProjectionAboveWordBoundary) {
  const TruthTable x7 = TruthTable::projection(8, 7);
  EXPECT_FALSE(x7.get(0));
  EXPECT_TRUE(x7.get(128));
  EXPECT_TRUE(x7.get(255));
  EXPECT_FALSE(x7.get(127));
}

TEST(TruthTable, OperatorsMatchSemantics) {
  // Manager::truth_table combines tables word by word.
  Manager mgr;
  const ExprId x = mgr.var(0);
  const ExprId y = mgr.var(2);
  const std::vector<std::uint32_t> support{0, 1, 2};
  const TruthTable conj = mgr.truth_table(mgr.mk_and2(x, y), support);
  const TruthTable disj = mgr.truth_table(mgr.mk_or2(x, y), support);
  const TruthTable exor = mgr.truth_table(mgr.mk_xor2(x, y), support);
  for (std::uint64_t row = 0; row < 8; ++row) {
    const bool xv = (row & 1) != 0;
    const bool yv = (row & 4) != 0;
    EXPECT_EQ(conj.get(row), xv && yv);
    EXPECT_EQ(disj.get(row), xv || yv);
    EXPECT_EQ(exor.get(row), xv != yv);
  }
}

TEST(TruthTable, ConstantsAndNegation) {
  const TruthTable t = TruthTable::constant(4, true);
  const TruthTable f = TruthTable::constant(4, false);
  EXPECT_TRUE(t.is_constant_true());
  EXPECT_TRUE(f.is_constant_false());
  EXPECT_TRUE((~t).is_constant_false());
  EXPECT_EQ(t.popcount(), 16u);
}

TEST(TruthTable, ZeroVarTables) {
  const TruthTable t = TruthTable::constant(0, true);
  EXPECT_EQ(t.n_rows(), 1u);
  EXPECT_TRUE(t.get(0));
  EXPECT_TRUE((~t).is_constant_false());
}

TEST(TruthTable, MintermsListsOnes) {
  TruthTable tt(2);
  tt.set(1, true);
  tt.set(3, true);
  EXPECT_EQ(tt.minterms(), (std::vector<std::uint64_t>{1, 3}));
}

// --- construction rules -------------------------------------------------------

TEST_F(ExprTest, ConstantsAndVars) {
  EXPECT_EQ(mgr.kind(mgr.const0()), Kind::kConst0);
  EXPECT_EQ(mgr.kind(mgr.const1()), Kind::kConst1);
  EXPECT_EQ(mgr.var(0), a);  // hash-consed
  EXPECT_NE(a, b);
}

TEST_F(ExprTest, DoubleNegationCancels) {
  EXPECT_EQ(mgr.mk_not(mgr.mk_not(a)), a);
  EXPECT_EQ(mgr.mk_not(mgr.const0()), mgr.const1());
}

TEST_F(ExprTest, AndIdentityAndAnnihilator) {
  EXPECT_EQ(mgr.mk_and({a, mgr.const1()}), a);
  EXPECT_EQ(mgr.mk_and({a, mgr.const0()}), mgr.const0());
  EXPECT_EQ(mgr.mk_and({}), mgr.const1());
  EXPECT_EQ(mgr.mk_and({a, a}), a);
  EXPECT_EQ(mgr.mk_and({a, mgr.mk_not(a)}), mgr.const0());
}

TEST_F(ExprTest, OrIdentityAndAnnihilator) {
  EXPECT_EQ(mgr.mk_or({a, mgr.const0()}), a);
  EXPECT_EQ(mgr.mk_or({a, mgr.const1()}), mgr.const1());
  EXPECT_EQ(mgr.mk_or({}), mgr.const0());
  EXPECT_EQ(mgr.mk_or({a, mgr.mk_not(a)}), mgr.const1());
}

TEST_F(ExprTest, FlatteningAndCommutativity) {
  const ExprId left = mgr.mk_and2(a, mgr.mk_and2(b, c));
  const ExprId right = mgr.mk_and2(mgr.mk_and2(c, a), b);
  EXPECT_EQ(left, right);  // same canonical node
}

TEST_F(ExprTest, Absorption) {
  // a | (a & b) == a ; a & (a | b) == a
  EXPECT_EQ(mgr.mk_or2(a, mgr.mk_and2(a, b)), a);
  EXPECT_EQ(mgr.mk_and2(a, mgr.mk_or2(a, b)), a);
}

TEST_F(ExprTest, XorParityNormalization) {
  EXPECT_EQ(mgr.mk_xor({a, a}), mgr.const0());
  EXPECT_EQ(mgr.mk_xor({a, mgr.const0()}), a);
  EXPECT_EQ(mgr.mk_xor({a, mgr.const1()}), mgr.mk_not(a));
  // ~a ^ b == ~(a ^ b)
  EXPECT_EQ(mgr.mk_xor2(mgr.mk_not(a), b), mgr.mk_not(mgr.mk_xor2(a, b)));
  // ~a ^ ~b == a ^ b
  EXPECT_EQ(mgr.mk_xor2(mgr.mk_not(a), mgr.mk_not(b)), mgr.mk_xor2(a, b));
}

TEST_F(ExprTest, MuxConstruction) {
  const ExprId mux = mgr.mk_mux(a, b, c);
  // Semantics: a ? b : c.
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<std::uint8_t> assignment{
        static_cast<std::uint8_t>(bits & 1), static_cast<std::uint8_t>((bits >> 1) & 1),
        static_cast<std::uint8_t>((bits >> 2) & 1)};
    const bool expected = assignment[0] != 0 ? assignment[1] != 0 : assignment[2] != 0;
    EXPECT_EQ(mgr.eval(mux, assignment), expected) << bits;
  }
}

TEST_F(ExprTest, SupportComputation) {
  const ExprId e = mgr.mk_or2(mgr.mk_and2(a, c), mgr.mk_not(a));
  EXPECT_EQ(mgr.support(e), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(mgr.support(mgr.const1()).empty());
}

// --- negate / equivalence ------------------------------------------------------

TEST_F(ExprTest, NegatePushesThroughDeMorgan) {
  const ExprId e = mgr.mk_and2(a, mgr.mk_or2(b, c));
  const ExprId n = mgr.negate(e);
  // ~(a & (b|c)) == ~a | (~b & ~c); check semantically and structurally
  // (negate must not produce a top-level NOT over AND/OR).
  EXPECT_NE(mgr.kind(n), Kind::kNot);
  EXPECT_TRUE(mgr.equivalent(n, mgr.mk_not(e)));
  EXPECT_EQ(mgr.negate(n), e);
}

TEST_F(ExprTest, EquivalentBasics) {
  const ExprId lhs = mgr.mk_or2(a, b);
  const ExprId rhs = mgr.mk_not(mgr.mk_and2(mgr.mk_not(a), mgr.mk_not(b)));
  EXPECT_TRUE(mgr.equivalent(lhs, rhs));
  EXPECT_FALSE(mgr.equivalent(lhs, mgr.mk_and2(a, b)));
}

TEST_F(ExprTest, ComplementaryDetectsMuxPair) {
  // The paper's Eq. 5 check: f = (x107&x4)|(x108&~x4) vs
  // g = (~x107&x4)|(~x108&~x4) must be complements.
  const ExprId x4 = mgr.var(3);
  const ExprId x107 = mgr.var(106);
  const ExprId x108 = mgr.var(107);
  const ExprId f = mgr.mk_or2(mgr.mk_and2(x107, x4),
                              mgr.mk_and2(x108, mgr.mk_not(x4)));
  const ExprId g = mgr.mk_or2(mgr.mk_and2(mgr.mk_not(x107), x4),
                              mgr.mk_and2(mgr.mk_not(x108), mgr.mk_not(x4)));
  EXPECT_TRUE(mgr.complementary(f, g));
  EXPECT_FALSE(mgr.complementary(f, f));
}

TEST_F(ExprTest, EquivalentOnDisjointSupports) {
  EXPECT_FALSE(mgr.equivalent(a, b));
  EXPECT_TRUE(mgr.equivalent(mgr.mk_xor2(a, a), mgr.const0()));
}

// --- QM minimization ------------------------------------------------------------

TEST(Qm, MinimizesMuxCover) {
  // f(s, d1, d0) = s ? d1 : d0 — classic 3-var function with a consensus
  // term; QM must produce exactly two cubes.
  TruthTable tt(3);
  for (std::uint64_t row = 0; row < 8; ++row) {
    const bool s = (row & 1) != 0;
    const bool d1 = (row & 2) != 0;
    const bool d0 = (row & 4) != 0;
    tt.set(row, s ? d1 : d0);
  }
  const auto cover = minimize_sop(tt);
  EXPECT_EQ(cover.size(), 2u);
  for (const std::uint64_t m : tt.minterms()) {
    bool covered = false;
    for (const Cube& cube : cover) covered |= cube.covers(m);
    EXPECT_TRUE(covered) << m;
  }
}

TEST(Qm, ConstantCovers) {
  EXPECT_TRUE(minimize_sop(TruthTable::constant(3, false)).empty());
  const auto cover = minimize_sop(TruthTable::constant(3, true));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0u);
}

TEST(Qm, SingleMinterm) {
  TruthTable tt(4);
  tt.set(5, true);  // x0=1 x1=0 x2=1 x3=0
  const auto cover = minimize_sop(tt);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0xFu);
  EXPECT_EQ(cover[0].value, 5u);
  EXPECT_EQ(cover[0].n_literals(), 4);
}

TEST(Qm, CoverIsExactOnRandomFunctions) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t n = 1 + rng.next_below(6);
    TruthTable tt(static_cast<std::uint32_t>(n));
    for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
      tt.set(row, rng.next_bool());
    }
    const auto cover = minimize_sop(tt);
    // Rebuild and compare against the original table.
    TruthTable rebuilt(static_cast<std::uint32_t>(n));
    for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
      bool value = false;
      for (const Cube& cube : cover) value |= cube.covers(row);
      rebuilt.set(row, value);
    }
    EXPECT_EQ(rebuilt, tt) << "trial " << trial << " n=" << n;
  }
}

// --- simplify -------------------------------------------------------------------

TEST_F(ExprTest, SimplifyProductOfSumsToMux) {
  // (~a | b) & (a | c) == (a & b) | (~a & c): POS (4 ops incl NOT) vs SOP
  // (5 ops); simplify should pick a form no worse than the input.
  const ExprId pos = mgr.mk_and2(mgr.mk_or2(mgr.mk_not(a), b), mgr.mk_or2(a, c));
  const ExprId simplified = mgr.simplify(pos);
  EXPECT_TRUE(mgr.equivalent(pos, simplified));
  EXPECT_LE(mgr.op_count_2input(simplified), mgr.op_count_2input(pos));
}

TEST_F(ExprTest, SimplifyDetectsConstants) {
  const ExprId tautology = mgr.mk_or2(mgr.mk_and2(a, b), mgr.mk_not(mgr.mk_and2(a, b)));
  EXPECT_EQ(mgr.simplify(tautology), mgr.const1());
  const ExprId contradiction = mgr.mk_and2(mgr.mk_xor2(a, b), mgr.mk_xor2(a, b));
  // xor & xor == xor (dedupe), not constant; make a real contradiction:
  const ExprId contra2 =
      mgr.mk_and2(mgr.mk_xor2(a, b), mgr.mk_not(mgr.mk_xor2(a, b)));
  EXPECT_EQ(mgr.simplify(contra2), mgr.const0());
  (void)contradiction;
}

TEST_F(ExprTest, SimplifyPreservesSemanticsRandomized) {
  util::Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    // Random expression over 4 vars, depth ~4.
    std::vector<ExprId> pool{mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3)};
    for (int step = 0; step < 10; ++step) {
      const ExprId x = pool[rng.next_below(pool.size())];
      const ExprId y = pool[rng.next_below(pool.size())];
      switch (rng.next_below(4)) {
        case 0:
          pool.push_back(mgr.mk_and2(x, y));
          break;
        case 1:
          pool.push_back(mgr.mk_or2(x, y));
          break;
        case 2:
          pool.push_back(mgr.mk_xor2(x, y));
          break;
        default:
          pool.push_back(mgr.mk_not(x));
          break;
      }
    }
    const ExprId original = pool.back();
    const ExprId simplified = mgr.simplify(original);
    EXPECT_TRUE(mgr.equivalent(original, simplified)) << "trial " << trial;
    EXPECT_LE(mgr.op_count_2input(simplified), mgr.op_count_2input(original));
  }
}

TEST_F(ExprTest, SimplifyMemoKeysOnVariableCount) {
  // x0 & x1 over two variables and x0 & x1 & ~x2 over three hold the same
  // table word, 0x8: a memo keyed on the words alone hands the 3-variable
  // function the 2-variable cover x0 & x1.
  for (const bool two_first : {true, false}) {
    Manager m;
    const ExprId two = m.mk_and2(m.var(0), m.var(1));
    const ExprId three = m.mk_and({m.var(0), m.var(1), m.mk_not(m.var(2))});
    ASSERT_EQ(m.truth_table(two, std::vector<std::uint32_t>{0, 1}).words()[0], 0x8u);
    ASSERT_EQ(m.truth_table(three, std::vector<std::uint32_t>{0, 1, 2}).words()[0],
              0x8u);
    const std::vector<ExprId> order =
        two_first ? std::vector<ExprId>{two, three} : std::vector<ExprId>{three, two};
    for (const ExprId e : order) {
      EXPECT_TRUE(m.equivalent(m.simplify(e), e))
          << m.to_string(e) << (two_first ? " (2 variables first)" : "");
    }
  }
}

TEST_F(ExprTest, InternIsStableAcrossTableGrowth) {
  // Over 100K distinct nodes grow the unique table many times; every node
  // must still be found, so rebuilding one returns its id and adds nothing.
  constexpr std::uint32_t kVars = 40000;
  std::vector<ExprId> built;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    const ExprId x = mgr.var(v);
    built.push_back(x);
    built.push_back(mgr.mk_not(x));
    if (v > 0) built.push_back(mgr.mk_and2(mgr.var(v - 1), x));
  }
  const std::size_t n_nodes = mgr.n_nodes();
  ASSERT_GE(n_nodes, 100000u);
  std::size_t i = 0;
  std::size_t moved = 0;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    const ExprId x = mgr.var(v);
    moved += x != built[i++];
    moved += mgr.mk_not(x) != built[i++];
    if (v > 0) moved += mgr.mk_and2(mgr.var(v - 1), x) != built[i++];
  }
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(mgr.n_nodes(), n_nodes);
}

TEST_F(ExprTest, OpCountSharesCommonSubDags) {
  const ExprId shared = mgr.mk_and2(a, b);
  const ExprId e = mgr.mk_or2(shared, mgr.mk_xor2(shared, c));
  // Nodes: AND(1) + XOR(1) + OR(1) = 3; 'shared' counted once.
  EXPECT_EQ(mgr.op_count_2input(e), 3u);
}

TEST_F(ExprTest, ToStringReadable) {
  const ExprId e = mgr.mk_or2(mgr.mk_and2(a, mgr.mk_not(b)), c);
  const std::string text = mgr.to_string(e);
  EXPECT_NE(text.find("x0"), std::string::npos);
  EXPECT_NE(text.find("~x1"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);
}

TEST_F(ExprTest, EvalAgainstTruthTableRandomized) {
  util::Rng rng(555);
  const ExprId e = mgr.mk_or2(mgr.mk_xor2(a, mgr.mk_and2(b, c)), mgr.mk_not(b));
  const auto support = mgr.support(e);
  const TruthTable tt = mgr.truth_table(e, support);
  for (std::uint64_t row = 0; row < tt.n_rows(); ++row) {
    std::vector<std::uint8_t> assignment(3, 0);
    for (std::size_t j = 0; j < support.size(); ++j) {
      assignment[support[j]] = static_cast<std::uint8_t>((row >> j) & 1);
    }
    EXPECT_EQ(mgr.eval(e, assignment), tt.get(row)) << row;
  }
}

TEST_F(ExprTest, FromSopRebuildsCover) {
  // cover: (x0 & ~x2) | x1 over support {0,1,2}
  const std::vector<Cube> cover{Cube{0b101, 0b001}, Cube{0b010, 0b010}};
  const std::vector<std::uint32_t> support{0, 1, 2};
  const ExprId e = mgr.from_sop(cover, support);
  const ExprId expected =
      mgr.mk_or2(mgr.mk_and2(a, mgr.mk_not(c)), b);
  EXPECT_TRUE(mgr.equivalent(e, expected));
}

}  // namespace
}  // namespace hts::expr
