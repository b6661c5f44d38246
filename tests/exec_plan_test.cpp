// Invariants of the levelized execution plan (prob::ExecPlan), on raw and
// optimized tapes of every benchgen family:
//   - the plan is a permutation of the tape (same op multiset),
//   - level ranges partition the plan and operands always come from strictly
//     lower levels (the independence property that lets a level be sorted),
//   - each level is sorted by opcode, keeping tape order among equal
//     opcodes (which fixes every slot's gradient accumulation order),
//   - each slot is written exactly once (the tape is SSA).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchgen/families.hpp"
#include "prob/compiled.hpp"

namespace hts::prob {
namespace {

class ExecPlanInvariants : public ::testing::TestWithParam<const char*> {};

void check_plan(const CompiledCircuit& compiled, const std::string& label) {
  const ExecPlan& plan = compiled.plan();
  const auto& tape = compiled.tape();
  ASSERT_EQ(plan.n_ops(), tape.size()) << label;
  ASSERT_EQ(plan.op.size(), plan.dst.size()) << label;
  ASSERT_EQ(plan.op.size(), plan.a.size()) << label;
  ASSERT_EQ(plan.op.size(), plan.b.size()) << label;

  // Same multiset of ops (unary plan entries mirror `a` into `b`).
  using Key = std::tuple<OpCode, std::uint32_t, std::uint32_t, std::uint32_t>;
  std::vector<Key> from_tape;
  std::vector<Key> from_plan;
  for (const TapeOp& op : tape) {
    from_tape.emplace_back(op.op, op.dst, op.a,
                           op_is_binary(op.op) ? op.b : op.a);
  }
  for (std::size_t i = 0; i < plan.n_ops(); ++i) {
    from_plan.emplace_back(plan.op[i], plan.dst[i], plan.a[i], plan.b[i]);
  }
  std::sort(from_tape.begin(), from_tape.end());
  std::sort(from_plan.begin(), from_plan.end());
  EXPECT_EQ(from_tape, from_plan) << label;

  // Level ranges partition [0, n_ops).
  ASSERT_FALSE(plan.level_begin.empty()) << label;
  EXPECT_EQ(plan.level_begin.front(), 0u) << label;
  EXPECT_EQ(plan.level_begin.back(), plan.n_ops()) << label;
  for (std::size_t l = 0; l < plan.n_levels(); ++l) {
    EXPECT_LT(plan.level_begin[l], plan.level_begin[l + 1]) << label;
  }

  // Operands come from strictly lower levels; dsts are written once.
  std::vector<int> def_level(compiled.n_slots(), -1);
  for (std::size_t l = 0; l < plan.n_levels(); ++l) {
    for (std::uint32_t i = plan.level_begin[l]; i < plan.level_begin[l + 1];
         ++i) {
      EXPECT_LT(def_level[plan.a[i]], static_cast<int>(l)) << label;
      EXPECT_LT(def_level[plan.b[i]], static_cast<int>(l)) << label;
      EXPECT_EQ(def_level[plan.dst[i]], -1)
          << label << " slot " << plan.dst[i] << " written twice";
      def_level[plan.dst[i]] = static_cast<int>(l);
    }
  }

  // Each level is ordered by (opcode, tape index).
  std::map<std::uint32_t, std::size_t> tape_index;
  for (std::size_t i = 0; i < tape.size(); ++i) tape_index[tape[i].dst] = i;
  for (std::size_t l = 0; l < plan.n_levels(); ++l) {
    for (std::uint32_t i = plan.level_begin[l] + 1; i < plan.level_begin[l + 1];
         ++i) {
      EXPECT_LT(std::make_pair(plan.op[i - 1], tape_index[plan.dst[i - 1]]),
                std::make_pair(plan.op[i], tape_index[plan.dst[i]]))
          << label << " level " << l << " plan index " << i;
    }
  }

  // Opcode runs partition the plan, are opcode-uniform, and never cross a
  // level boundary (the engine dispatches one kernel per run).
  ASSERT_FALSE(plan.run_begin.empty()) << label;
  EXPECT_EQ(plan.run_begin.front(), 0u) << label;
  EXPECT_EQ(plan.run_begin.back(), plan.n_ops()) << label;
  for (std::size_t k = 0; k + 1 < plan.run_begin.size(); ++k) {
    const std::uint32_t begin = plan.run_begin[k];
    const std::uint32_t end = plan.run_begin[k + 1];
    ASSERT_LT(begin, end) << label << " run " << k;
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      EXPECT_EQ(plan.op[i], plan.op[begin])
          << label << " run " << k << " mixes opcodes at " << i;
    }
    // A run lies inside one level: no level boundary strictly between.
    for (std::size_t l = 0; l < plan.n_levels(); ++l) {
      const std::uint32_t lb = plan.level_begin[l + 1];
      EXPECT_FALSE(begin < lb && lb < end)
          << label << " run " << k << " crosses level boundary " << lb;
    }
  }
}

TEST_P(ExecPlanInvariants, RawTape) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  check_plan(raw, std::string(GetParam()) + "/raw");
}

TEST_P(ExecPlanInvariants, OptimizedTape) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit opt(instance.circuit);
  check_plan(opt, std::string(GetParam()) + "/opt");
  EXPECT_GT(opt.plan().n_levels(), 0u);
  // The opcode order clusters ops: every family has fewer runs than ops
  // (mean run length > 1).
  EXPECT_GT(opt.plan().max_run_length(), 1u) << GetParam();
  EXPECT_LT(opt.plan().n_runs(), opt.n_ops()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ExecPlanInvariants,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hts::prob
