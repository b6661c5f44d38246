#include "verify/plan_verifier.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "util/env.hpp"

namespace hts::verify {

namespace {

using prob::op_is_binary;
using prob::TapeOp;
using circuit::word_op_is_binary;

std::string slot_str(std::uint32_t slot) {
  return "slot " + std::to_string(slot);
}

/// Diagnostic cap; scanning stops once reached (Report::truncated).
constexpr std::size_t kMaxDiagnostics = 16;

/// Accumulates diagnostics up to kMaxDiagnostics; callers consult full() to
/// stop scanning a rule early without losing the truncation marker.
class Reporter {
 public:
  [[nodiscard]] bool full() const {
    return report_.diagnostics.size() >= kMaxDiagnostics;
  }

  void add(Rule rule, std::size_t op_index, std::string message) {
    if (full()) {
      report_.truncated = true;
      return;
    }
    report_.diagnostics.push_back(
        Diagnostic{rule, op_index, std::move(message)});
  }

  [[nodiscard]] Report take() { return std::move(report_); }

 private:
  Report report_;
};

/// A boundary array partitions [0, n) iff it starts at 0, ends at n, and
/// strictly increases (constructed plans have no empty level/run).
bool check_partition(std::span<const std::uint32_t> begin, std::size_t n,
                     const char* name, Reporter& reporter) {
  if (begin.empty() || begin.front() != 0 || begin.back() != n) {
    reporter.add(Rule::kShape, kWholePlan,
                 std::string(name) + " does not span [0, " +
                     std::to_string(n) + ")");
    return false;
  }
  for (std::size_t i = 1; i < begin.size(); ++i) {
    if (begin[i] <= begin[i - 1]) {
      reporter.add(Rule::kShape, kWholePlan,
                   std::string(name) + "[" + std::to_string(i) +
                       "] does not increase (empty or inverted range)");
      return false;
    }
  }
  return true;
}

/// Tracks single-assignment slot definitions shared by the tape- and
/// plan-order walks; base definitions (inputs, constants) seed the set.
class DefSet {
 public:
  explicit DefSet(std::size_t n_slots) : defined_(n_slots, 0) {}

  /// Defines a base slot; false when already defined (kSsa at the caller).
  bool define_base(std::uint32_t slot) {
    if (defined_[slot] != 0) return false;
    defined_[slot] = 1;
    return true;
  }

  [[nodiscard]] bool is_defined(std::uint32_t slot) const {
    return defined_[slot] != 0;
  }

  bool define(std::uint32_t slot) { return define_base(slot); }

 private:
  std::vector<std::uint8_t> defined_;
};

/// Seeds base definitions (inputs + constants) into `defs`, reporting
/// double definitions as kSsa.  Slot bounds were checked before this runs.
template <typename InputSlotFn>
void seed_base_defs(std::size_t n_inputs, InputSlotFn&& input_slot,
                    std::span<const std::uint32_t> const_slots, DefSet& defs,
                    Reporter& reporter) {
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const std::int32_t slot = input_slot(i);
    if (slot == prob::kNoSlot) continue;
    if (!defs.define_base(static_cast<std::uint32_t>(slot))) {
      reporter.add(Rule::kSsa, kWholePlan,
                   "input " + std::to_string(i) + " redefines " +
                       slot_str(static_cast<std::uint32_t>(slot)));
    }
  }
  for (std::size_t c = 0; c < const_slots.size(); ++c) {
    if (!defs.define_base(const_slots[c])) {
      reporter.add(Rule::kSsa, kWholePlan,
                   "constant " + std::to_string(c) + " redefines " +
                       slot_str(const_slots[c]));
    }
  }
}

// ---- ExecPlan (float tape) ------------------------------------------------

/// Shape gate: all later rules index these arrays, so a failure here ends
/// the verification (the report carries the reason).
bool check_exec_shape(const ExecPlanView& v, Reporter& reporter) {
  const std::size_t n = v.op.size();
  bool ok = true;
  if (v.dst.size() != n || v.a.size() != n || v.b.size() != n) {
    reporter.add(Rule::kShape, kWholePlan,
                 "plan arrays disagree in length (op " + std::to_string(n) +
                     ", dst " + std::to_string(v.dst.size()) + ", a " +
                     std::to_string(v.a.size()) + ", b " +
                     std::to_string(v.b.size()) + ")");
    ok = false;
  }
  if (v.tape.size() != n) {
    reporter.add(Rule::kShape, kWholePlan,
                 "tape has " + std::to_string(v.tape.size()) +
                     " ops but plan has " + std::to_string(n));
    ok = false;
  }
  ok = check_partition(v.level_begin, n, "level_begin", reporter) && ok;
  ok = check_partition(v.run_begin, n, "run_begin", reporter) && ok;
  if (!ok) return false;

  // Unary plan entries mirror a into b so every kernel may load both
  // operand lanes unconditionally.
  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    if (!op_is_binary(v.op[k]) && v.b[k] != v.a[k]) {
      reporter.add(Rule::kShape, k,
                   "unary plan op does not mirror a into b (a = " +
                       std::to_string(v.a[k]) + ", b = " +
                       std::to_string(v.b[k]) + ")");
      ok = false;
    }
  }
  return ok;
}

/// Bounds gate: later rules index defined[]/avail[] arrays by slot, so any
/// out-of-range index ends the verification.
bool check_exec_bounds(const ExecPlanView& v, Reporter& reporter) {
  bool ok = true;
  auto bad = [&](std::size_t index, const std::string& what,
                 std::uint32_t slot) {
    reporter.add(Rule::kSlotBounds, index,
                 what + " references " + slot_str(slot) + " outside [0, " +
                     std::to_string(v.n_slots) + ")");
    ok = false;
  };
  for (std::size_t i = 0; i < v.tape.size() && !reporter.full(); ++i) {
    const TapeOp& t = v.tape[i];
    if (t.dst >= v.n_slots) bad(i, "tape dst", t.dst);
    if (t.a >= v.n_slots) bad(i, "tape operand a", t.a);
    if (op_is_binary(t.op) && t.b >= v.n_slots) bad(i, "tape operand b", t.b);
  }
  for (std::size_t k = 0; k < v.op.size() && !reporter.full(); ++k) {
    if (v.dst[k] >= v.n_slots) bad(k, "plan dst", v.dst[k]);
    if (v.a[k] >= v.n_slots) bad(k, "plan operand a", v.a[k]);
    if (v.b[k] >= v.n_slots) bad(k, "plan operand b", v.b[k]);
  }
  for (std::size_t i = 0; i < v.input_slot.size() && !reporter.full(); ++i) {
    const std::int32_t slot = v.input_slot[i];
    if (slot == prob::kNoSlot) continue;
    if (slot < 0 || static_cast<std::size_t>(slot) >= v.n_slots) {
      reporter.add(Rule::kSlotBounds, kWholePlan,
                   "input " + std::to_string(i) + " maps to slot " +
                       std::to_string(slot) + " outside [0, " +
                       std::to_string(v.n_slots) + ")");
      ok = false;
    }
  }
  for (const prob::CompiledCircuit::ConstSlot& c : v.const_slots) {
    if (c.slot >= v.n_slots) bad(kWholePlan, "constant", c.slot);
  }
  for (const prob::CompiledCircuit::Output& out : v.outputs) {
    if (out.slot >= v.n_slots) bad(kWholePlan, "output", out.slot);
  }
  return ok;
}

void verify_exec_impl(const ExecPlanView& v, const Options& options,
                      Reporter& reporter) {
  if (!check_exec_shape(v, reporter)) return;
  if (!check_exec_bounds(v, reporter)) return;

  const std::size_t n = v.op.size();
  std::vector<std::uint32_t> const_slot_ids;
  const_slot_ids.reserve(v.const_slots.size());
  for (const prob::CompiledCircuit::ConstSlot& c : v.const_slots) {
    const_slot_ids.push_back(c.slot);
  }
  auto input_slot_at = [&v](std::size_t i) { return v.input_slot[i]; };

  // ---- tape order: SSA + def-before-use (the tape is the optimizer's
  // output and must itself be a topological SSA program) ----
  DefSet tape_defs(v.n_slots);
  seed_base_defs(v.input_slot.size(), input_slot_at, const_slot_ids,
                 tape_defs, reporter);
  for (std::size_t i = 0; i < n && !reporter.full(); ++i) {
    const TapeOp& t = v.tape[i];
    if (!tape_defs.is_defined(t.a)) {
      reporter.add(Rule::kDefBeforeUse, i,
                   "tape operand a reads " + slot_str(t.a) +
                       " before its definition");
    }
    if (op_is_binary(t.op) && !tape_defs.is_defined(t.b)) {
      reporter.add(Rule::kDefBeforeUse, i,
                   "tape operand b reads " + slot_str(t.b) +
                       " before its definition");
    }
    if (!tape_defs.define(t.dst)) {
      reporter.add(Rule::kSsa, i,
                   "tape op redefines " + slot_str(t.dst));
    }
  }

  // ---- plan order: SSA + def-before-use + exact ASAP levels ----
  // avail[slot] is one past the level of the slot's producer (base slots
  // sit at 0), so an op's exact ASAP level is the max over its operands'
  // avail — the same rule util::levelize_asap applies during construction,
  // recomputed here independently over the *published* order.
  DefSet plan_defs(v.n_slots);
  seed_base_defs(v.input_slot.size(), input_slot_at, const_slot_ids,
                 plan_defs, reporter);
  std::vector<std::uint32_t> avail(v.n_slots, 0);
  std::size_t level = 0;
  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    while (v.level_begin[level + 1] <= k) ++level;
    if (!plan_defs.is_defined(v.a[k])) {
      reporter.add(Rule::kDefBeforeUse, k,
                   "plan operand a reads " + slot_str(v.a[k]) +
                       " before its definition (plan order)");
    }
    if (op_is_binary(v.op[k]) && !plan_defs.is_defined(v.b[k])) {
      reporter.add(Rule::kDefBeforeUse, k,
                   "plan operand b reads " + slot_str(v.b[k]) +
                       " before its definition (plan order)");
    }
    std::uint32_t asap = avail[v.a[k]];
    if (op_is_binary(v.op[k])) asap = std::max(asap, avail[v.b[k]]);
    if (asap != level) {
      reporter.add(Rule::kLevelOrder, k,
                   "plan op published at level " + std::to_string(level) +
                       " but its exact ASAP level is " + std::to_string(asap));
    }
    if (!plan_defs.define(v.dst[k])) {
      reporter.add(Rule::kSsa, k,
                   "plan op redefines " + slot_str(v.dst[k]) +
                       " (plan order)");
    }
    avail[v.dst[k]] = static_cast<std::uint32_t>(level) + 1;
  }

  // ---- opcode runs: uniform, level-bounded, maximal ----
  {
    std::vector<std::uint8_t> is_run_begin(n + 1, 0);
    for (const std::uint32_t rb : v.run_begin) is_run_begin[rb] = 1;
    std::vector<std::uint8_t> is_level_begin(n + 1, 0);
    for (const std::uint32_t lb : v.level_begin) is_level_begin[lb] = 1;
    for (const std::uint32_t lb : v.level_begin) {
      if (is_run_begin[lb] == 0) {
        reporter.add(Rule::kRunPartition, lb,
                     "a run crosses the level boundary at plan index " +
                         std::to_string(lb));
      }
    }
    for (std::size_t r = 0; r + 1 < v.run_begin.size() && !reporter.full();
         ++r) {
      for (std::uint32_t k = v.run_begin[r] + 1; k < v.run_begin[r + 1]; ++k) {
        if (v.op[k] != v.op[v.run_begin[r]]) {
          reporter.add(Rule::kRunPartition, k,
                       "run " + std::to_string(r) + " mixes opcodes");
          break;
        }
      }
    }
    for (std::size_t r = 1; r + 1 < v.run_begin.size() && !reporter.full();
         ++r) {
      const std::uint32_t k = v.run_begin[r];
      if (is_level_begin[k] == 0 && v.op[k] == v.op[k - 1]) {
        reporter.add(Rule::kRunPartition, k,
                     "adjacent runs share an opcode inside one level (run "
                     "partition is not maximal)");
      }
    }
  }

  // ---- permutation: the plan executes exactly the tape's ops ----
  // dst is SSA-unique, so matching through it pairs every plan entry with
  // its tape op; equal counts (shape) then make the pairing a bijection.
  {
    std::unordered_map<std::uint32_t, std::size_t> tape_by_dst;
    tape_by_dst.reserve(n);
    for (std::size_t i = 0; i < n; ++i) tape_by_dst.emplace(v.tape[i].dst, i);
    for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
      const auto it = tape_by_dst.find(v.dst[k]);
      if (it == tape_by_dst.end()) {
        reporter.add(Rule::kPermutation, k,
                     "plan op defines " + slot_str(v.dst[k]) +
                         " which no tape op defines");
        continue;
      }
      const TapeOp& t = v.tape[it->second];
      const bool binary = op_is_binary(v.op[k]);
      if (t.op != v.op[k] || t.a != v.a[k] || (binary && t.b != v.b[k])) {
        reporter.add(Rule::kPermutation, k,
                     "plan op disagrees with tape op " +
                         std::to_string(it->second) + " on " +
                         slot_str(v.dst[k]));
      }
    }
  }

  // ---- liveness: DCE soundness and renumbering compactness ----
  // Backward walk from the outputs over the tape; optimized tapes promise
  // every op reaches an output and every slot survived for a reason.
  std::vector<std::uint8_t> live(v.n_slots, 0);
  for (const prob::CompiledCircuit::Output& out : v.outputs) {
    live[out.slot] = 1;
  }
  for (std::size_t i = n; i-- > 0;) {
    const TapeOp& t = v.tape[i];
    if (live[t.dst] == 0) {
      if (options.optimized && !reporter.full()) {
        reporter.add(Rule::kDeadCode, i,
                     "tape op defines " + slot_str(t.dst) +
                         " which reaches no output (DCE missed it)");
      }
      continue;
    }
    live[t.a] = 1;
    if (op_is_binary(t.op)) live[t.b] = 1;
  }
  for (std::uint32_t s = 0; s < v.n_slots && !reporter.full(); ++s) {
    if (!tape_defs.is_defined(s)) {
      reporter.add(Rule::kSlotLiveness, kWholePlan,
                   slot_str(s) + " is never defined");
    } else if (options.optimized && live[s] == 0) {
      reporter.add(Rule::kSlotLiveness, kWholePlan,
                   slot_str(s) +
                       " is dead but survived the liveness renumbering");
    }
  }
}

// ---- EvalPlan (bitwise word plan) -----------------------------------------

bool check_eval_shape(const EvalPlanView& v, Reporter& reporter) {
  const std::size_t n = v.op.size();
  bool ok = true;
  if (v.dst.size() != n || v.a.size() != n || v.b.size() != n) {
    reporter.add(Rule::kShape, kWholePlan,
                 "plan arrays disagree in length (op " + std::to_string(n) +
                     ", dst " + std::to_string(v.dst.size()) + ", a " +
                     std::to_string(v.a.size()) + ", b " +
                     std::to_string(v.b.size()) + ")");
    ok = false;
  }
  if (v.n_slots < v.n_signals) {
    reporter.add(Rule::kShape, kWholePlan,
                 "n_slots " + std::to_string(v.n_slots) +
                     " < n_signals " + std::to_string(v.n_signals) +
                     " (signal s must live in slot s)");
    ok = false;
  }
  ok = check_partition(v.run_begin, n, "run_begin", reporter) && ok;
  if (!ok) return false;
  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    if (!word_op_is_binary(v.op[k]) && v.b[k] != v.a[k]) {
      reporter.add(Rule::kShape, k,
                   "unary plan op does not mirror a into b (a = " +
                       std::to_string(v.a[k]) + ", b = " +
                       std::to_string(v.b[k]) + ")");
      ok = false;
    }
  }
  return ok;
}

bool check_eval_bounds(const EvalPlanView& v, Reporter& reporter) {
  bool ok = true;
  auto bad = [&](std::size_t index, const std::string& what,
                 std::uint32_t slot, std::size_t bound) {
    reporter.add(Rule::kSlotBounds, index,
                 what + " references " + slot_str(slot) + " outside [0, " +
                     std::to_string(bound) + ")");
    ok = false;
  };
  for (std::size_t k = 0; k < v.op.size() && !reporter.full(); ++k) {
    if (v.dst[k] >= v.n_slots) bad(k, "plan dst", v.dst[k], v.n_slots);
    if (v.a[k] >= v.n_slots) bad(k, "plan operand a", v.a[k], v.n_slots);
    if (v.b[k] >= v.n_slots) bad(k, "plan operand b", v.b[k], v.n_slots);
  }
  // Inputs, constants, and outputs are circuit signals; signal s lives in
  // slot s, so their bound is n_signals, not n_slots.
  for (const circuit::SignalId s : v.inputs) {
    if (s >= v.n_signals) bad(kWholePlan, "input signal", s, v.n_signals);
  }
  for (const circuit::EvalPlan::ConstSlot& c : v.const_slots) {
    if (c.slot >= v.n_signals) {
      bad(kWholePlan, "constant signal", c.slot, v.n_signals);
    }
  }
  for (const circuit::OutputConstraint& out : v.outputs) {
    if (out.signal >= v.n_signals) {
      bad(kWholePlan, "output signal", out.signal, v.n_signals);
    }
  }
  return ok;
}

void verify_eval_impl(const EvalPlanView& v, Reporter& reporter) {
  if (!check_eval_shape(v, reporter)) return;
  if (!check_eval_bounds(v, reporter)) return;

  const std::size_t n = v.op.size();
  std::vector<std::uint32_t> const_slot_ids;
  const_slot_ids.reserve(v.const_slots.size());
  for (const circuit::EvalPlan::ConstSlot& c : v.const_slots) {
    const_slot_ids.push_back(c.slot);
  }

  DefSet defs(v.n_slots);
  seed_base_defs(
      v.inputs.size(),
      [&v](std::size_t i) { return static_cast<std::int32_t>(v.inputs[i]); },
      const_slot_ids, defs, reporter);

  // One walk covers SSA, def-before-use, and level order: the plan stores
  // no level table, so levels are recomputed from the exact ASAP rule and
  // the published order must be non-decreasing in them (that *is* the
  // levelized-order contract).  level_of[k] feeds the run checks below.
  std::vector<std::uint32_t> avail(v.n_slots, 0);
  std::vector<std::uint32_t> level_of(n, 0);
  std::uint32_t prev_level = 0;
  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    if (!defs.is_defined(v.a[k])) {
      reporter.add(Rule::kDefBeforeUse, k,
                   "plan operand a reads " + slot_str(v.a[k]) +
                       " before its definition");
    }
    if (word_op_is_binary(v.op[k]) && !defs.is_defined(v.b[k])) {
      reporter.add(Rule::kDefBeforeUse, k,
                   "plan operand b reads " + slot_str(v.b[k]) +
                       " before its definition");
    }
    std::uint32_t asap = avail[v.a[k]];
    if (word_op_is_binary(v.op[k])) asap = std::max(asap, avail[v.b[k]]);
    level_of[k] = asap;
    if (k > 0 && asap < prev_level) {
      reporter.add(Rule::kLevelOrder, k,
                   "plan op at ASAP level " + std::to_string(asap) +
                       " follows an op at level " +
                       std::to_string(prev_level) +
                       " (plan is not sorted by level)");
    }
    prev_level = std::max(prev_level, asap);
    if (!defs.define(v.dst[k])) {
      reporter.add(Rule::kSsa, k, "plan op redefines " + slot_str(v.dst[k]));
    }
    avail[v.dst[k]] = asap + 1;
  }

  // ---- opcode runs: uniform, level-bounded, maximal ----
  {
    std::vector<std::uint8_t> is_run_begin(n + 1, 0);
    for (const std::uint32_t rb : v.run_begin) is_run_begin[rb] = 1;
    auto level_changes_at = [&level_of](std::size_t k) {
      return k == 0 || level_of[k] != level_of[k - 1];
    };
    for (std::size_t k = 1; k < n && !reporter.full(); ++k) {
      if (level_changes_at(k) && is_run_begin[k] == 0) {
        reporter.add(Rule::kRunPartition, k,
                     "a run crosses the level boundary at plan index " +
                         std::to_string(k));
      }
    }
    for (std::size_t r = 0; r + 1 < v.run_begin.size() && !reporter.full();
         ++r) {
      for (std::uint32_t k = v.run_begin[r] + 1; k < v.run_begin[r + 1]; ++k) {
        if (v.op[k] != v.op[v.run_begin[r]]) {
          reporter.add(Rule::kRunPartition, k,
                       "run " + std::to_string(r) + " mixes opcodes");
          break;
        }
      }
    }
    for (std::size_t r = 1; r + 1 < v.run_begin.size() && !reporter.full();
         ++r) {
      const std::uint32_t k = v.run_begin[r];
      if (!level_changes_at(k) && v.op[k] == v.op[k - 1]) {
        reporter.add(Rule::kRunPartition, k,
                     "adjacent runs share an opcode inside one level (run "
                     "partition is not maximal)");
      }
    }
  }

  // Every slot must be defined: signals feed satisfied()/signal_word
  // lookups and temporaries feed later tree ops, so an undefined slot
  // would read stale scratch.
  for (std::uint32_t s = 0; s < v.n_slots && !reporter.full(); ++s) {
    if (!defs.is_defined(s)) {
      reporter.add(Rule::kSlotLiveness, kWholePlan,
                   slot_str(s) + " is never defined");
    }
  }
}

}  // namespace

const char* rule_name(Rule rule) {
  switch (rule) {
    case Rule::kShape:
      return "shape";
    case Rule::kSlotBounds:
      return "slot-bounds";
    case Rule::kSsa:
      return "ssa";
    case Rule::kDefBeforeUse:
      return "def-before-use";
    case Rule::kLevelOrder:
      return "level-order";
    case Rule::kRunPartition:
      return "run-partition";
    case Rule::kPermutation:
      return "permutation";
    case Rule::kDeadCode:
      return "dead-code";
    case Rule::kSlotLiveness:
      return "slot-liveness";
  }
  return "unknown";
}

std::string Report::to_string() const {
  if (ok()) return "plan verified: ok";
  std::string out = "plan verification failed (" +
                    std::to_string(diagnostics.size()) + " diagnostic" +
                    (diagnostics.size() == 1 ? "" : "s") +
                    (truncated ? ", truncated" : "") + "):";
  for (const Diagnostic& d : diagnostics) {
    out += "\n  [";
    out += rule_name(d.rule);
    out += "] ";
    if (d.op_index != kWholePlan) {
      out += "op " + std::to_string(d.op_index) + ": ";
    }
    out += d.message;
  }
  return out;
}

ExecPlanView ExecPlanView::of(const prob::CompiledCircuit& compiled) {
  const prob::ExecPlan& plan = compiled.plan();
  ExecPlanView view;
  view.n_slots = compiled.n_slots();
  view.tape = compiled.tape();
  view.op = plan.op;
  view.dst = plan.dst;
  view.a = plan.a;
  view.b = plan.b;
  view.level_begin = plan.level_begin;
  view.run_begin = plan.run_begin;
  view.input_slot = compiled.input_slot();
  view.const_slots = compiled.const_slots();
  view.outputs = compiled.outputs();
  return view;
}

EvalPlanView EvalPlanView::of(const circuit::EvalPlan& plan) {
  EvalPlanView view;
  view.n_slots = plan.n_slots();
  view.n_signals = plan.n_signals();
  view.op = plan.ops();
  view.dst = plan.dsts();
  view.a = plan.operand_a();
  view.b = plan.operand_b();
  view.run_begin = plan.run_begin();
  view.inputs = plan.input_signals();
  view.const_slots = plan.const_slots();
  view.outputs = plan.output_constraints();
  return view;
}

Report verify_exec_plan(const ExecPlanView& view, Options options) {
  Reporter reporter;
  verify_exec_impl(view, options, reporter);
  return reporter.take();
}

Report verify_eval_plan(const EvalPlanView& view) {
  Reporter reporter;
  verify_eval_impl(view, reporter);
  return reporter.take();
}

Report verify_exec_plan(const prob::CompiledCircuit& compiled) {
  Options options;
  options.optimized = compiled.options().optimize;
  return verify_exec_plan(ExecPlanView::of(compiled), options);
}

Report verify_eval_plan(const circuit::EvalPlan& plan) {
  return verify_eval_plan(EvalPlanView::of(plan));
}

namespace {

#ifndef HTS_VERIFY_PLANS_DEFAULT
#define HTS_VERIFY_PLANS_DEFAULT 0
#endif

bool initial_verify_plans() {
  return util::env_int("HTS_VERIFY_PLANS", HTS_VERIFY_PLANS_DEFAULT) != 0;
}

std::atomic<bool>& verify_flag() {
  static std::atomic<bool> flag{initial_verify_plans()};
  return flag;
}

}  // namespace

bool plans_verified() {
  return verify_flag().load(std::memory_order_relaxed);
}

void set_verify_plans(bool on) {
  verify_flag().store(on, std::memory_order_relaxed);
}

}  // namespace hts::verify
