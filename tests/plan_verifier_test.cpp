// Plan-IR verifier (verify/plan_verifier.hpp): green paths over every
// benchgen family's compiled artifacts, then mutation tests — each class of
// corruption applied to a healthy plan must be rejected with the *right*
// rule, so a verifier that rubber-stamps or misclassifies fails here even
// though every production plan it sees is well-formed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchgen/families.hpp"
#include "circuit/eval_plan.hpp"
#include "prob/compiled.hpp"
#include "verify/plan_verifier.hpp"

namespace hts {
namespace {

using prob::CompiledCircuit;
using prob::OpCode;
using prob::TapeOp;
using verify::Report;
using verify::Rule;

bool has_rule(const Report& report, Rule rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [rule](const verify::Diagnostic& d) {
                       return d.rule == rule;
                     });
}

std::string rules_of(const Report& report) { return report.to_string(); }

// ---- mutable copies of the compiled artifacts -----------------------------
// Tests corrupt these copies and verify through raw-array views, so no
// mutation ever touches (or needs) the production objects.

struct MutableExec {
  std::size_t n_slots = 0;
  std::vector<TapeOp> tape;
  std::vector<OpCode> op;
  std::vector<std::uint32_t> dst, a, b;
  std::vector<std::uint32_t> level_begin, run_begin;
  std::vector<std::int32_t> input_slot;
  std::vector<CompiledCircuit::ConstSlot> const_slots;
  std::vector<CompiledCircuit::Output> outputs;

  static MutableExec of(const CompiledCircuit& compiled) {
    const prob::ExecPlan& plan = compiled.plan();
    MutableExec m;
    m.n_slots = compiled.n_slots();
    m.tape = compiled.tape();
    m.op = plan.op;
    m.dst = plan.dst;
    m.a = plan.a;
    m.b = plan.b;
    m.level_begin = plan.level_begin;
    m.run_begin = plan.run_begin;
    m.input_slot = compiled.input_slot();
    m.const_slots = compiled.const_slots();
    m.outputs = compiled.outputs();
    return m;
  }

  [[nodiscard]] verify::ExecPlanView view() const {
    verify::ExecPlanView v;
    v.n_slots = n_slots;
    v.tape = tape;
    v.op = op;
    v.dst = dst;
    v.a = a;
    v.b = b;
    v.level_begin = level_begin;
    v.run_begin = run_begin;
    v.input_slot = input_slot;
    v.const_slots = const_slots;
    v.outputs = outputs;
    return v;
  }

  /// Tape index of the op defining `slot` (plans are SSA, so it is unique).
  [[nodiscard]] std::size_t tape_index_of_dst(std::uint32_t slot) const {
    for (std::size_t i = 0; i < tape.size(); ++i) {
      if (tape[i].dst == slot) return i;
    }
    ADD_FAILURE() << "no tape op defines slot " << slot;
    return 0;
  }

  /// First plan pair (producer j, consumer k) where k's operand `a` is
  /// defined by plan op j — the canonical dependent pair for reorderings.
  [[nodiscard]] std::pair<std::size_t, std::size_t> dependent_pair() const {
    std::vector<std::int64_t> def_pos(n_slots, -1);
    for (std::size_t k = 0; k < op.size(); ++k) {
      if (def_pos[a[k]] >= 0) {
        return {static_cast<std::size_t>(def_pos[a[k]]), k};
      }
      def_pos[dst[k]] = static_cast<std::int64_t>(k);
    }
    ADD_FAILURE() << "plan has no dependent op pair";
    return {0, 0};
  }

  void swap_rows(std::size_t i, std::size_t j) {
    std::swap(op[i], op[j]);
    std::swap(dst[i], dst[j]);
    std::swap(a[i], a[j]);
    std::swap(b[i], b[j]);
  }
};

struct MutableEval {
  std::size_t n_slots = 0;
  std::size_t n_signals = 0;
  std::vector<circuit::WordOp> op;
  std::vector<std::uint32_t> dst, a, b;
  std::vector<std::uint32_t> level_begin, run_begin;
  std::vector<circuit::SignalId> inputs;
  std::vector<circuit::EvalPlan::ConstSlot> const_slots;
  std::vector<circuit::OutputConstraint> outputs;

  static MutableEval of(const circuit::EvalPlan& plan) {
    MutableEval m;
    m.n_slots = plan.n_slots();
    m.n_signals = plan.n_signals();
    m.op = plan.plan().op;
    m.dst = plan.plan().dst;
    m.a = plan.plan().a;
    m.b = plan.plan().b;
    m.level_begin = plan.plan().level_begin;
    m.run_begin = plan.plan().run_begin;
    m.inputs = plan.input_signals();
    m.const_slots = plan.const_slots();
    m.outputs = plan.output_constraints();
    return m;
  }

  [[nodiscard]] verify::EvalPlanView view() const {
    verify::EvalPlanView v;
    v.n_slots = n_slots;
    v.n_signals = n_signals;
    v.op = op;
    v.dst = dst;
    v.a = a;
    v.b = b;
    v.level_begin = level_begin;
    v.run_begin = run_begin;
    v.inputs = inputs;
    v.const_slots = const_slots;
    v.outputs = outputs;
    return v;
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> dependent_pair() const {
    std::vector<std::int64_t> def_pos(n_slots, -1);
    for (std::size_t k = 0; k < op.size(); ++k) {
      if (def_pos[a[k]] >= 0) {
        return {static_cast<std::size_t>(def_pos[a[k]]), k};
      }
      def_pos[dst[k]] = static_cast<std::int64_t>(k);
    }
    ADD_FAILURE() << "plan has no dependent op pair";
    return {0, 0};
  }

  void swap_rows(std::size_t i, std::size_t j) {
    std::swap(op[i], op[j]);
    std::swap(dst[i], dst[j]);
    std::swap(a[i], a[j]);
    std::swap(b[i], b[j]);
  }
};

/// The small family keeps mutation scans cheap; structure is still rich
/// (multiple levels and multi-op runs).
constexpr const char* kMutationFamily = "or-50-10-7-UC-10";

MutableExec healthy_exec(bool optimize) {
  const benchgen::Instance instance = benchgen::make_instance(kMutationFamily);
  const CompiledCircuit compiled(instance.circuit,
                                 CompiledCircuit::Options{false, optimize});
  return MutableExec::of(compiled);
}

MutableEval healthy_eval() {
  const benchgen::Instance instance = benchgen::make_instance(kMutationFamily);
  return MutableEval::of(circuit::EvalPlan(instance.circuit));
}

verify::Options exec_options(bool optimized) {
  verify::Options options;
  options.optimized = optimized;
  return options;
}

// ---- green paths ----------------------------------------------------------

class PlanVerifierFamilies : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanVerifierFamilies, AcceptsAllCompiledArtifacts) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit,
                            CompiledCircuit::Options{false, true});
  const CompiledCircuit cone(instance.circuit,
                             CompiledCircuit::Options{true, true});
  const circuit::EvalPlan eval_plan(instance.circuit);

  for (const CompiledCircuit* compiled : {&raw, &opt, &cone}) {
    const Report report = verify::verify_exec_plan(*compiled);
    EXPECT_TRUE(report.ok()) << GetParam() << ": " << rules_of(report);
  }
  const Report eval_report = verify::verify_eval_plan(eval_plan);
  EXPECT_TRUE(eval_report.ok()) << GetParam() << ": " << rules_of(eval_report);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PlanVerifierFamilies,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(PlanVerifier, ReportRendersRuleAndOpIndex) {
  MutableExec m = healthy_exec(false);
  m.a[0] = static_cast<std::uint32_t>(m.n_slots) + 7;
  if (!op_is_binary(m.op[0])) m.b[0] = m.a[0];  // keep the unary mirror
  const Report report = verify::verify_exec_plan(m.view(), exec_options(false));
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("slot-bounds"), std::string::npos) << text;
  EXPECT_NE(text.find("op 0"), std::string::npos) << text;
}

TEST(PlanVerifier, RuntimeSwitchRoundTrips) {
  const bool before = verify::plans_verified();
  verify::set_verify_plans(true);
  EXPECT_TRUE(verify::plans_verified());
  // Construction under the hook must pass cleanly for a healthy circuit.
  const benchgen::Instance instance = benchgen::make_instance(kMutationFamily);
  const CompiledCircuit compiled(instance.circuit);
  const circuit::EvalPlan eval_plan(instance.circuit);
  EXPECT_GT(compiled.n_ops(), 0u);
  EXPECT_GT(eval_plan.plan().n_ops(), 0u);
  verify::set_verify_plans(false);
  EXPECT_FALSE(verify::plans_verified());
  verify::set_verify_plans(before);
}

// ---- ExecPlan mutations ---------------------------------------------------

TEST(ExecPlanMutations, SwappedDependentOpsAreRejected) {
  MutableExec m = healthy_exec(false);
  const auto [producer, consumer] = m.dependent_pair();
  m.swap_rows(producer, consumer);
  const Report report = verify::verify_exec_plan(m.view(), exec_options(false));
  // The consumer now runs first: its operand is undefined at that point, and
  // at least one of the pair sits at the wrong ASAP level.
  EXPECT_TRUE(has_rule(report, Rule::kDefBeforeUse)) << rules_of(report);
}

TEST(ExecPlanMutations, MisplacedLevelBoundaryIsRejected) {
  // Hand-built three-op plan: A and B at level 0, C = Or(A, B) at level 1.
  // Shifting the level boundary publishes B at level 1 while its exact ASAP
  // level stays 0 — only kLevelOrder can catch this (order, SSA, runs, and
  // the tape permutation all stay intact).
  MutableExec m;
  m.n_slots = 5;
  m.input_slot = {0, 1};
  m.outputs = {CompiledCircuit::Output{4, 1.0f}};
  m.tape = {TapeOp{OpCode::kAnd, 2, 0, 1}, TapeOp{OpCode::kXor, 3, 0, 1},
            TapeOp{OpCode::kOr, 4, 2, 3}};
  m.op = {OpCode::kAnd, OpCode::kXor, OpCode::kOr};
  m.dst = {2, 3, 4};
  m.a = {0, 0, 2};
  m.b = {1, 1, 3};
  m.level_begin = {0, 2, 3};
  m.run_begin = {0, 1, 2, 3};
  ASSERT_TRUE(verify::verify_exec_plan(m.view(), exec_options(false)).ok());

  m.level_begin = {0, 1, 3};
  const Report report = verify::verify_exec_plan(m.view(), exec_options(false));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::kLevelOrder)) << rules_of(report);
  EXPECT_FALSE(has_rule(report, Rule::kDefBeforeUse)) << rules_of(report);
}

TEST(ExecPlanMutations, DuplicatedSsaDefinitionIsRejected) {
  MutableExec m = healthy_exec(false);
  const std::size_t last = m.op.size() - 1;
  const std::size_t tape_index = m.tape_index_of_dst(m.dst[last]);
  m.tape[tape_index].dst = m.dst[0];
  m.dst[last] = m.dst[0];
  const Report report = verify::verify_exec_plan(m.view(), exec_options(false));
  EXPECT_TRUE(has_rule(report, Rule::kSsa)) << rules_of(report);
}

TEST(ExecPlanMutations, OperandAtUndefinedSlotIsRejected) {
  MutableExec m = healthy_exec(false);
  const std::uint32_t ghost = static_cast<std::uint32_t>(m.n_slots);
  ++m.n_slots;  // in bounds, but nothing ever defines it
  const std::size_t victim = m.op.size() - 1;
  const std::size_t tape_index = m.tape_index_of_dst(m.dst[victim]);
  m.tape[tape_index].a = ghost;
  m.a[victim] = ghost;
  if (!op_is_binary(m.op[victim])) m.b[victim] = ghost;
  const Report report = verify::verify_exec_plan(m.view(), exec_options(false));
  EXPECT_TRUE(has_rule(report, Rule::kDefBeforeUse)) << rules_of(report);
}

TEST(ExecPlanMutations, OperandOutOfBoundsIsRejected) {
  MutableExec m = healthy_exec(false);
  const std::size_t victim = m.op.size() / 2;
  const std::size_t tape_index = m.tape_index_of_dst(m.dst[victim]);
  const std::uint32_t wild = static_cast<std::uint32_t>(m.n_slots) + 7;
  m.tape[tape_index].a = wild;
  m.a[victim] = wild;
  if (!op_is_binary(m.op[victim])) m.b[victim] = wild;
  const Report report = verify::verify_exec_plan(m.view(), exec_options(false));
  EXPECT_TRUE(has_rule(report, Rule::kSlotBounds)) << rules_of(report);
}

TEST(ExecPlanMutations, RunCrossingALevelBoundaryIsRejected) {
  MutableExec m = healthy_exec(true);
  ASSERT_GT(m.level_begin.size(), 2u);
  const std::uint32_t boundary = m.level_begin[1];
  const auto it =
      std::find(m.run_begin.begin(), m.run_begin.end(), boundary);
  ASSERT_NE(it, m.run_begin.end());
  m.run_begin.erase(it);  // the first level's last run now crosses into L1
  const Report report = verify::verify_exec_plan(m.view(), exec_options(true));
  EXPECT_TRUE(has_rule(report, Rule::kRunPartition)) << rules_of(report);
}

TEST(ExecPlanMutations, SplitRunInsideALevelIsRejected) {
  MutableExec m = healthy_exec(true);
  std::size_t run = m.run_begin.size();
  for (std::size_t r = 0; r + 1 < m.run_begin.size(); ++r) {
    if (m.run_begin[r + 1] - m.run_begin[r] >= 2) {
      run = r;
      break;
    }
  }
  ASSERT_LT(run, m.run_begin.size()) << "no run of length >= 2";
  // Runs never cross levels, so a mid-run index is not a level boundary:
  // the inserted split leaves two adjacent same-opcode runs in one level.
  m.run_begin.insert(m.run_begin.begin() + static_cast<std::ptrdiff_t>(run) + 1,
                     m.run_begin[run] + 1);
  const Report report = verify::verify_exec_plan(m.view(), exec_options(true));
  EXPECT_TRUE(has_rule(report, Rule::kRunPartition)) << rules_of(report);
}

TEST(ExecPlanMutations, ResurrectedDeadOpIsRejectedOnOptimizedTapes) {
  MutableExec m = healthy_exec(true);
  const std::size_t n = m.op.size();
  const std::size_t n_levels = m.level_begin.size() - 1;
  // Feed the new op from the last level so its ASAP level is exactly the
  // appended level — every structural rule stays satisfied; only liveness
  // can object.
  const std::uint32_t operand = m.dst[m.level_begin[n_levels] - 1];
  const std::uint32_t fresh = static_cast<std::uint32_t>(m.n_slots);
  ++m.n_slots;
  m.tape.push_back(TapeOp{OpCode::kNot, fresh, operand, 0});
  m.op.push_back(OpCode::kNot);
  m.dst.push_back(fresh);
  m.a.push_back(operand);
  m.b.push_back(operand);
  m.level_begin.push_back(static_cast<std::uint32_t>(n) + 1);
  m.run_begin.push_back(static_cast<std::uint32_t>(n) + 1);

  // A raw tape may legitimately carry dead ops...
  EXPECT_TRUE(verify::verify_exec_plan(m.view(), exec_options(false)).ok());
  // ...an optimized tape may not: DCE should have removed it.
  const Report report = verify::verify_exec_plan(m.view(), exec_options(true));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::kDeadCode)) << rules_of(report);
  EXPECT_TRUE(has_rule(report, Rule::kSlotLiveness)) << rules_of(report);
}

TEST(ExecPlanMutations, PlanDivergingFromTapeIsRejected) {
  MutableExec m = healthy_exec(true);
  // Flip one tape opcode between two binary forms; the plan no longer
  // executes the tape's op multiset, but both remain individually sound.
  for (TapeOp& t : m.tape) {
    if (t.op == OpCode::kAnd) {
      t.op = OpCode::kOr;
      break;
    }
    if (t.op == OpCode::kOr) {
      t.op = OpCode::kAnd;
      break;
    }
  }
  const Report report = verify::verify_exec_plan(m.view(), exec_options(true));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::kPermutation)) << rules_of(report);
}

// ---- EvalPlan mutations ---------------------------------------------------

TEST(EvalPlanMutations, SwappedDependentOpsAreRejected) {
  MutableEval m = healthy_eval();
  const auto [producer, consumer] = m.dependent_pair();
  m.swap_rows(producer, consumer);
  const Report report = verify::verify_eval_plan(m.view());
  EXPECT_TRUE(has_rule(report, Rule::kDefBeforeUse)) << rules_of(report);
}

TEST(EvalPlanMutations, DuplicatedSsaDefinitionIsRejected) {
  MutableEval m = healthy_eval();
  m.dst[m.dst.size() - 1] = m.dst[0];
  const Report report = verify::verify_eval_plan(m.view());
  EXPECT_TRUE(has_rule(report, Rule::kSsa)) << rules_of(report);
}

TEST(EvalPlanMutations, OperandAtUndefinedSlotIsRejected) {
  MutableEval m = healthy_eval();
  const std::uint32_t ghost = static_cast<std::uint32_t>(m.n_slots);
  ++m.n_slots;
  const std::size_t victim = m.op.size() - 1;
  m.a[victim] = ghost;
  if (!circuit::word_op_is_binary(m.op[victim])) m.b[victim] = ghost;
  const Report report = verify::verify_eval_plan(m.view());
  EXPECT_TRUE(has_rule(report, Rule::kDefBeforeUse)) << rules_of(report);
}

TEST(EvalPlanMutations, OperandOutOfBoundsIsRejected) {
  MutableEval m = healthy_eval();
  const std::size_t victim = m.op.size() / 2;
  m.a[victim] = static_cast<std::uint32_t>(m.n_slots) + 3;
  if (!circuit::word_op_is_binary(m.op[victim])) m.b[victim] = m.a[victim];
  const Report report = verify::verify_eval_plan(m.view());
  EXPECT_TRUE(has_rule(report, Rule::kSlotBounds)) << rules_of(report);
}

TEST(EvalPlanMutations, MisplacedLevelBoundaryIsRejected) {
  // The ExecPlan case over word ops: A = And(x, y) and B = Xor(x, y) at
  // level 0, C = Or(A, B) at level 1.  Shifting the boundary publishes B at
  // level 1 while its exact ASAP level stays 0; the order stays topological.
  MutableEval m;
  m.n_slots = 5;
  m.n_signals = 5;
  m.inputs = {0, 1};
  m.outputs = {circuit::OutputConstraint{4, true}};
  m.op = {circuit::WordOp::kAnd, circuit::WordOp::kXor, circuit::WordOp::kOr};
  m.dst = {2, 3, 4};
  m.a = {0, 0, 2};
  m.b = {1, 1, 3};
  m.level_begin = {0, 2, 3};
  m.run_begin = {0, 1, 2, 3};
  ASSERT_TRUE(verify::verify_eval_plan(m.view()).ok());

  m.level_begin = {0, 1, 3};
  const Report report = verify::verify_eval_plan(m.view());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::kLevelOrder)) << rules_of(report);
  EXPECT_FALSE(has_rule(report, Rule::kDefBeforeUse)) << rules_of(report);
}

TEST(EvalPlanMutations, RunCrossingALevelBoundaryIsRejected) {
  MutableEval m = healthy_eval();
  ASSERT_GT(m.level_begin.size(), 2u);
  const std::uint32_t boundary = m.level_begin[1];
  const auto it =
      std::find(m.run_begin.begin(), m.run_begin.end(), boundary);
  ASSERT_NE(it, m.run_begin.end());
  m.run_begin.erase(it);  // the first level's last run now crosses into L1
  const Report report = verify::verify_eval_plan(m.view());
  EXPECT_TRUE(has_rule(report, Rule::kRunPartition)) << rules_of(report);
}

TEST(EvalPlanMutations, SplitRunInsideALevelIsRejected) {
  MutableEval m = healthy_eval();
  std::size_t run = m.run_begin.size();
  for (std::size_t r = 0; r + 1 < m.run_begin.size(); ++r) {
    if (m.run_begin[r + 1] - m.run_begin[r] >= 2) {
      run = r;
      break;
    }
  }
  ASSERT_LT(run, m.run_begin.size()) << "no run of length >= 2";
  m.run_begin.insert(m.run_begin.begin() + static_cast<std::ptrdiff_t>(run) + 1,
                     m.run_begin[run] + 1);
  const Report report = verify::verify_eval_plan(m.view());
  EXPECT_TRUE(has_rule(report, Rule::kRunPartition)) << rules_of(report);
}

TEST(EvalPlanMutations, BrokenUnaryMirrorIsRejected) {
  MutableEval m = healthy_eval();
  std::size_t victim = m.op.size();
  for (std::size_t k = 0; k < m.op.size(); ++k) {
    if (!circuit::word_op_is_binary(m.op[k])) {
      victim = k;
      break;
    }
  }
  ASSERT_LT(victim, m.op.size()) << "no unary op in plan";
  m.b[victim] = m.dst[victim];  // != a (SSA: dst is fresh, a is older)
  const Report report = verify::verify_eval_plan(m.view());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_rule(report, Rule::kShape)) << rules_of(report);
}

}  // namespace
}  // namespace hts
