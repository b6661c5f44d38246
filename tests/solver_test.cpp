// Tests for the solver substrate: CDCL vs brute-force agreement on random
// 3-SAT sweeps, model validity, enumeration/blocking, budgets, randomized
// modes, WalkSAT, and unit propagation corner cases.

#include <gtest/gtest.h>

#include "circuit/tseitin.hpp"
#include "cnf/dimacs.hpp"
#include "solver/brute.hpp"
#include "solver/cdcl.hpp"
#include "solver/walksat.hpp"
#include "util/rng.hpp"

namespace hts::solver {
namespace {

using cnf::Lit;
using cnf::Var;

cnf::Formula random_ksat(util::Rng& rng, Var n_vars, std::size_t n_clauses,
                         std::size_t k) {
  cnf::Formula f(n_vars);
  for (std::size_t c = 0; c < n_clauses; ++c) {
    cnf::Clause clause;
    while (clause.size() < k) {
      const Lit lit(static_cast<Var>(rng.next_below(n_vars)), rng.next_bool());
      bool dup = false;
      for (const Lit l : clause) dup |= l.var() == lit.var();
      if (!dup) clause.push_back(lit);
    }
    f.add_clause(clause);
  }
  return f;
}

TEST(Cdcl, EmptyFormulaSat) {
  const cnf::Formula f(3);
  cnf::Assignment model;
  EXPECT_EQ(solve_formula(f, &model), Status::kSat);
  EXPECT_EQ(model.size(), 3u);
}

TEST(Cdcl, UnitPropagationChains) {
  // x1; x1->x2; x2->x3; ~x3 | x4  ==> all forced.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 4 4\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n");
  cnf::Assignment model;
  ASSERT_EQ(solve_formula(f, &model), Status::kSat);
  EXPECT_EQ(model, (cnf::Assignment{1, 1, 1, 1}));
}

TEST(Cdcl, DetectsUnsatViaPropagation) {
  const auto f = cnf::parse_dimacs_string("p cnf 1 2\n1 0\n-1 0\n");
  EXPECT_EQ(solve_formula(f), Status::kUnsat);
}

TEST(Cdcl, DetectsUnsatRequiringConflictAnalysis) {
  // Classic pigeonhole PHP(3,2): 3 pigeons, 2 holes.
  cnf::Formula f(6);  // p_{i,h} -> var 2i+h
  for (int i = 0; i < 3; ++i) {
    f.add_clause({Lit(static_cast<Var>(2 * i), false),
                  Lit(static_cast<Var>(2 * i + 1), false)});
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        f.add_clause({Lit(static_cast<Var>(2 * i + h), true),
                      Lit(static_cast<Var>(2 * j + h), true)});
      }
    }
  }
  EXPECT_EQ(solve_formula(f), Status::kUnsat);
}

TEST(Cdcl, ModelSatisfiesFormula) {
  util::Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = random_ksat(rng, 30, 90, 3);
    cnf::Assignment model;
    if (solve_formula(f, &model) == Status::kSat) {
      EXPECT_TRUE(f.satisfied_by(model)) << "trial " << trial;
    }
  }
}

class CdclVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(CdclVsBrute, AgreesOnRandom3Sat) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  // Around the phase transition (ratio ~4.3) for maximum discrimination.
  const Var n = 12 + static_cast<Var>(rng.next_below(6));
  const auto n_clauses = static_cast<std::size_t>(n * 43 / 10);
  const auto f = random_ksat(rng, n, n_clauses, 3);
  const bool brute_sat = count_models(f) > 0;
  cnf::Assignment model;
  const Status status = solve_formula(f, &model);
  ASSERT_NE(status, Status::kUnknown);
  EXPECT_EQ(status == Status::kSat, brute_sat);
  if (status == Status::kSat) {
    EXPECT_TRUE(f.satisfied_by(model));
  }
}

INSTANTIATE_TEST_SUITE_P(PhaseTransitionSweep, CdclVsBrute, ::testing::Range(0, 30));

TEST(Cdcl, EnumerationFindsAllModels) {
  util::Rng rng(20);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = random_ksat(rng, 10, 25, 3);
    const auto expected = enumerate_models(f);

    CdclSolver solver;
    solver.add_formula(f);
    std::set<cnf::Assignment> found;
    while (solver.solve() == Status::kSat) {
      found.insert(solver.model());
      if (!solver.block_model()) break;
      ASSERT_LE(found.size(), expected.size() + 1);
    }
    EXPECT_EQ(found.size(), expected.size()) << "trial " << trial;
    for (const auto& model : expected) {
      EXPECT_TRUE(found.contains(model));
    }
  }
}

TEST(Cdcl, ProjectedBlockingEnumeratesProjections) {
  // f = (x1 | x2) & (x3 | ~x3): project onto {x1, x2} -> 3 distinct pairs.
  const auto f = cnf::parse_dimacs_string("p cnf 3 1\n1 2 0\n");
  CdclSolver solver;
  solver.add_formula(f);
  std::set<std::pair<int, int>> pairs;
  while (solver.solve() == Status::kSat) {
    pairs.insert({solver.model()[0], solver.model()[1]});
    if (!solver.block_model({0, 1})) break;
  }
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(Cdcl, AssumptionsRespected) {
  const auto f = cnf::parse_dimacs_string("p cnf 3 1\n1 2 3 0\n");
  CdclSolver solver;
  solver.add_formula(f);
  ASSERT_EQ(solver.solve({Lit(0, true), Lit(1, true)}), Status::kSat);
  EXPECT_EQ(solver.model()[0], 0);
  EXPECT_EQ(solver.model()[1], 0);
  EXPECT_EQ(solver.model()[2], 1);
  // Conflicting assumptions on an implied unit.
  const auto g = cnf::parse_dimacs_string("p cnf 1 1\n1 0\n");
  CdclSolver solver2;
  solver2.add_formula(g);
  EXPECT_EQ(solver2.solve({Lit(0, true)}), Status::kUnsat);
}

TEST(Cdcl, ConflictBudgetInterrupts) {
  util::Rng rng(30);
  CdclConfig config;
  config.conflict_budget = 1;
  CdclSolver solver(config);
  // A formula requiring real search: random 3-SAT near phase transition.
  solver.add_formula(random_ksat(rng, 40, 170, 3));
  const Status status = solver.solve();
  // With a 1-conflict budget, either it got lucky or it must report kUnknown.
  EXPECT_TRUE(status == Status::kUnknown || status == Status::kSat);
}

TEST(Cdcl, RandomizedModesStillSound) {
  util::Rng rng(40);
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = random_ksat(rng, 20, 70, 3);
    const bool brute_sat = count_models(f) > 0;
    CdclConfig config;
    config.polarity = CdclConfig::Polarity::kRandom;
    config.random_decision_freq = 0.3;
    config.seed = rng.next_u64();
    CdclSolver solver(config);
    solver.add_formula(f);
    const Status status = solver.solve();
    ASSERT_NE(status, Status::kUnknown);
    EXPECT_EQ(status == Status::kSat, brute_sat) << "trial " << trial;
    if (status == Status::kSat) {
      EXPECT_TRUE(f.satisfied_by(solver.model()));
    }
  }
}

TEST(Cdcl, ReshuffleChangesModels) {
  // Large solution space: repeated solves after reshuffle should not always
  // return the same model.
  cnf::Formula f(16);
  for (Var v = 0; v + 1 < 16; v += 2) {
    f.add_clause({Lit(v, false), Lit(v + 1, false)});
  }
  CdclConfig config;
  config.polarity = CdclConfig::Polarity::kRandom;
  CdclSolver solver(config);
  solver.add_formula(f);
  util::Rng rng(50);
  std::set<cnf::Assignment> models;
  for (int i = 0; i < 20; ++i) {
    solver.reshuffle(rng.next_u64());
    ASSERT_EQ(solver.solve(), Status::kSat);
    models.insert(solver.model());
  }
  EXPECT_GT(models.size(), 3u);
}

TEST(Cdcl, StatsAccumulate) {
  util::Rng rng(60);
  CdclSolver solver;
  solver.add_formula(random_ksat(rng, 30, 128, 3));
  (void)solver.solve();
  EXPECT_GT(solver.stats().propagations, 0u);
}

TEST(Cdcl, ManySolveCallsStayConsistent) {
  // Incremental usage: solve, block, solve... with learned clauses kept.
  util::Rng rng(70);
  const auto f = random_ksat(rng, 14, 40, 3);
  const std::uint64_t total = count_models(f);
  CdclSolver solver;
  solver.add_formula(f);
  std::uint64_t found = 0;
  while (solver.solve() == Status::kSat) {
    EXPECT_TRUE(f.satisfied_by(solver.model()));
    ++found;
    if (!solver.block_model()) break;
    ASSERT_LE(found, total);
  }
  EXPECT_EQ(found, total);
}

TEST(Cdcl, TseitinInstancesSolvable) {
  // End-to-end: circuit -> CNF -> solve; model must satisfy the encoding.
  util::Rng rng(80);
  circuit::Circuit c;
  for (int i = 0; i < 6; ++i) c.add_input();
  for (int g = 0; g < 20; ++g) {
    const auto a = static_cast<circuit::SignalId>(rng.next_below(c.n_signals()));
    auto b = static_cast<circuit::SignalId>(rng.next_below(c.n_signals()));
    if (a == b) {
      c.add_gate(circuit::GateType::kNot, {a});
    } else {
      c.add_gate(rng.next_bool() ? circuit::GateType::kAnd : circuit::GateType::kXor,
                 {a, b});
    }
  }
  std::vector<std::uint8_t> in(6);
  for (auto& bit : in) bit = rng.next_bool() ? 1 : 0;
  const auto values = c.eval(in);
  c.add_output(static_cast<circuit::SignalId>(c.n_signals() - 1),
               values[c.n_signals() - 1] != 0);
  const auto enc = circuit::tseitin_encode(c);
  cnf::Assignment model;
  ASSERT_EQ(solve_formula(enc.formula, &model), Status::kSat);
  EXPECT_TRUE(enc.formula.satisfied_by(model));
}

// --- brute force -----------------------------------------------------------------

TEST(Brute, CountsTinyFormulas) {
  const auto f = cnf::parse_dimacs_string("p cnf 2 1\n1 2 0\n");
  EXPECT_EQ(count_models(f), 3u);
  const auto g = cnf::parse_dimacs_string("p cnf 3 0\n");
  EXPECT_EQ(count_models(g), 8u);
}

TEST(Brute, EarlyStopWorks) {
  const auto f = cnf::parse_dimacs_string("p cnf 3 0\n");
  std::size_t visited = 0;
  for_each_model(f, [&](const cnf::Assignment&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3u);
}

// --- WalkSAT ---------------------------------------------------------------------

TEST(WalkSat, SolvesSatisfiableInstances) {
  util::Rng rng(90);
  int solved = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = random_ksat(rng, 20, 60, 3);  // easy ratio 3.0
    if (count_models(f) == 0) continue;
    WalkSatConfig config;
    config.seed = rng.next_u64();
    config.max_flips = 200000;
    WalkSat walksat(f, config);
    const auto model = walksat.search();
    if (model.has_value()) {
      EXPECT_TRUE(f.satisfied_by(*model));
      ++solved;
    }
  }
  EXPECT_GT(solved, 0);
}

TEST(WalkSat, RespectsDeadline) {
  util::Rng rng(100);
  // UNSAT instance: WalkSAT can never finish; deadline must stop it.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n");
  WalkSatConfig config;
  config.max_flips = ~0ULL;
  WalkSat walksat(f, config);
  const util::StopToken budget = util::StopToken().with_budget(50.0);
  const auto model = walksat.search(budget);
  EXPECT_FALSE(model.has_value());
}

TEST(WalkSat, FlipBookkeepingConsistent) {
  util::Rng rng(110);
  const auto f = random_ksat(rng, 15, 40, 3);
  WalkSatConfig config;
  config.max_flips = 500;
  WalkSat walksat(f, config);
  (void)walksat.search();
  EXPECT_GT(walksat.total_flips(), 0u);
}

}  // namespace
}  // namespace hts::solver
