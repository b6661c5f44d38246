#pragma once

// The levelized plan format both compiled evaluators execute, and its one
// builder.
//
// The engine's float tape (prob::ExecPlan) and the harvest side's bitwise
// word plan (circuit::EvalPlan) are the same structure over different
// opcodes: ops assigned ASAP levels over their slot DAG, regrouped level by
// level (stable counting sort), sorted by opcode inside each level, and
// dispatched once per maximal same-opcode run.  Both are built here, so the
// level and run rules can never diverge: an op's level is one past the
// highest operand level, and a run breaks where the opcode changes or a
// level begins (runs never cross levels; callers may still clamp a run to
// any sub-range).  verify/plan_verifier.hpp re-derives the same rules from
// their specification, independently of this code.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hts::util {

/// One op of a topologically ordered program: `dst` = op(`a`, `b`), where
/// `b` is unused by unary opcodes.
template <typename Op>
struct PlanOp {
  Op op;
  std::uint32_t dst;
  std::uint32_t a;
  std::uint32_t b;
};

/// Levelized, structure-of-arrays plan.
///
/// Ops are regrouped by ASAP level; within a level every operand slot is
/// produced at a strictly lower level, so a level's ops can execute in any
/// order.  Inside a level, ops sit in (opcode, program order).  Unary
/// entries mirror `a` into `b`, so every kernel may load both operands.
template <typename Op>
struct LevelPlan {
  // Parallel arrays, one entry per op, ordered by (level, opcode, program
  // index).
  std::vector<Op> op;
  std::vector<std::uint32_t> dst;
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  /// Level l spans plan indices [level_begin[l], level_begin[l + 1]).
  std::vector<std::uint32_t> level_begin;
  /// Opcode runs: run k spans plan indices [run_begin[k], run_begin[k + 1]),
  /// every op of a run shares one opcode, and runs never cross a level
  /// boundary.  Executors dispatch kernels once per run (a run-length inner
  /// loop replaces the per-op switch); the within-level opcode order makes
  /// one run per (level, opcode).  Always ends with n_ops(), so an empty
  /// plan has {0} and zero runs.
  std::vector<std::uint32_t> run_begin;

  [[nodiscard]] std::size_t n_ops() const { return op.size(); }
  [[nodiscard]] std::size_t n_levels() const {
    return level_begin.empty() ? 0 : level_begin.size() - 1;
  }
  [[nodiscard]] std::size_t width(std::size_t level) const {
    return level_begin[level + 1] - level_begin[level];
  }
  [[nodiscard]] std::size_t max_width() const {
    std::size_t w = 0;
    for (std::size_t l = 0; l < n_levels(); ++l) w = std::max(w, width(l));
    return w;
  }
  [[nodiscard]] std::size_t n_runs() const {
    return run_begin.empty() ? 0 : run_begin.size() - 1;
  }
  [[nodiscard]] std::size_t max_run_length() const {
    std::size_t longest = 0;
    for (std::size_t k = 0; k < n_runs(); ++k) {
      longest = std::max<std::size_t>(longest, run_begin[k + 1] - run_begin[k]);
    }
    return longest;
  }
};

/// Builds the plan of `ops`, a topologically ordered SSA program over slots
/// [0, n_slots): slots no op defines (inputs, constants) sit below level 0,
/// and `is_binary(op)` says whether an op reads `b`.  Ops sharing an
/// operand keep their program order within one (level, opcode), which fixes
/// the order in which a reverse walk accumulates that operand's gradient.
template <typename Op>
[[nodiscard]] LevelPlan<Op> build_level_plan(const std::vector<PlanOp<Op>>& ops,
                                             std::size_t n_slots,
                                             bool (*is_binary)(Op)) {
  const std::size_t n = ops.size();
  // ASAP levels in one forward walk: slot_level[s] is one past the level of
  // s's producer.
  std::vector<std::uint32_t> slot_level(n_slots, 0);
  std::vector<std::uint32_t> level(n, 0);
  std::uint32_t n_levels = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PlanOp<Op>& o = ops[i];
    std::uint32_t lvl = slot_level[o.a];
    if (is_binary(o.op)) lvl = std::max(lvl, slot_level[o.b]);
    level[i] = lvl;
    slot_level[o.dst] = lvl + 1;
    n_levels = std::max(n_levels, lvl + 1);
  }

  // Stable counting sort by level, then a stable opcode sort inside each
  // level.
  LevelPlan<Op> plan;
  plan.level_begin.assign(static_cast<std::size_t>(n_levels) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++plan.level_begin[level[i] + 1];
  for (std::size_t l = 1; l <= n_levels; ++l) {
    plan.level_begin[l] += plan.level_begin[l - 1];
  }
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> cursor(plan.level_begin);
  for (std::size_t i = 0; i < n; ++i) {
    order[cursor[level[i]]++] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t l = 0; l < n_levels; ++l) {
    std::stable_sort(order.begin() + plan.level_begin[l],
                     order.begin() + plan.level_begin[l + 1],
                     [&ops](std::uint32_t x, std::uint32_t y) {
                       return ops[x].op < ops[y].op;
                     });
  }

  plan.op.resize(n);
  plan.dst.resize(n);
  plan.a.resize(n);
  plan.b.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const PlanOp<Op>& o = ops[order[k]];
    plan.op[k] = o.op;
    plan.dst[k] = o.dst;
    plan.a[k] = o.a;
    plan.b[k] = is_binary(o.op) ? o.b : o.a;
  }

  // Maximal same-opcode runs, split at level boundaries.
  std::size_t lvl = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    while (plan.level_begin[lvl + 1] <= k) ++lvl;
    if (k == 0 || plan.op[k] != plan.op[k - 1] || plan.level_begin[lvl] == k) {
      plan.run_begin.push_back(k);
    }
  }
  plan.run_begin.push_back(static_cast<std::uint32_t>(n));
  return plan;
}

}  // namespace hts::util
