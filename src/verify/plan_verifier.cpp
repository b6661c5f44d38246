#include "verify/plan_verifier.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "util/env.hpp"

namespace hts::verify {

namespace {

using prob::TapeOp;

bool is_binary(prob::OpCode op) { return prob::op_is_binary(op); }
bool is_binary(circuit::WordOp op) { return circuit::word_op_is_binary(op); }

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

/// The slots a plan reads without defining them (inputs, constants) and the
/// outputs it must reach, taken from either plan kind's view.
struct Anchors {
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> constants;
  std::vector<std::uint32_t> outputs;
};

Anchors anchors_of(const ExecPlanView& v) {
  Anchors out;
  for (const std::int32_t slot : v.input_slot) {
    // A negative slot other than kNoSlot wraps past every bound.
    if (slot != prob::kNoSlot) {
      out.inputs.push_back(static_cast<std::uint32_t>(slot));
    }
  }
  for (const prob::CompiledCircuit::ConstSlot& c : v.const_slots) {
    out.constants.push_back(c.slot);
  }
  for (const prob::CompiledCircuit::Output& o : v.outputs) {
    out.outputs.push_back(o.slot);
  }
  return out;
}

Anchors anchors_of(const EvalPlanView& v) {
  Anchors out;
  out.inputs.assign(v.inputs.begin(), v.inputs.end());
  for (const circuit::EvalPlan::ConstSlot& c : v.const_slots) {
    out.constants.push_back(c.slot);
  }
  for (const circuit::OutputConstraint& o : v.outputs) {
    out.outputs.push_back(o.signal);
  }
  return out;
}

/// kSlotBounds for one slot index: false (and reported) unless it lies
/// inside [0, bound).
bool in_bounds(std::uint32_t slot, std::size_t bound, std::size_t index,
               const char* what, Reporter& reporter) {
  if (slot < bound) return true;
  reporter.add(Rule::kSlotBounds, index,
               std::string(what) + " references " + slot_str(slot) +
                   " outside [0, " + std::to_string(bound) + ")");
  return false;
}

bool check_anchor_bounds(const Anchors& anchors, std::size_t bound,
                         Reporter& reporter) {
  bool ok = true;
  for (const std::uint32_t slot : anchors.inputs) {
    ok = in_bounds(slot, bound, kWholePlan, "input", reporter) && ok;
  }
  for (const std::uint32_t slot : anchors.constants) {
    ok = in_bounds(slot, bound, kWholePlan, "constant", reporter) && ok;
  }
  for (const std::uint32_t slot : anchors.outputs) {
    ok = in_bounds(slot, bound, kWholePlan, "output", reporter) && ok;
  }
  return ok;
}

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

/// Single-assignment slot definitions, seeded with the base definitions
/// (inputs, constants); double definitions are kSsa.
class DefSet {
 public:
  DefSet(std::size_t n_slots, const Anchors& anchors, Reporter& reporter)
      : defined_(n_slots, 0) {
    for (const std::uint32_t slot : anchors.inputs) {
      if (!define(slot)) {
        reporter.add(Rule::kSsa, kWholePlan,
                     "an input redefines " + slot_str(slot));
      }
    }
    for (const std::uint32_t slot : anchors.constants) {
      if (!define(slot)) {
        reporter.add(Rule::kSsa, kWholePlan,
                     "a constant redefines " + slot_str(slot));
      }
    }
  }

  /// Defines `slot`; false when it already was.
  bool define(std::uint32_t slot) {
    if (defined_[slot] != 0) return false;
    defined_[slot] = 1;
    return true;
  }

  [[nodiscard]] bool is_defined(std::uint32_t slot) const {
    return defined_[slot] != 0;
  }

 private:
  std::vector<std::uint8_t> defined_;
};

// ---- shared rules (both plan kinds) ---------------------------------------

/// Shape and bounds gates: every later rule indexes the plan arrays and
/// per-slot tables, so a failure here ends the verification.
template <typename Op>
bool check_structure(const LevelPlanView<Op>& v, const Anchors& anchors,
                     Reporter& reporter) {
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
  ok = check_partition(v.level_begin, n, "level_begin", reporter) && ok;
  ok = check_partition(v.run_begin, n, "run_begin", reporter) && ok;
  if (!ok) return false;

  // Unary plan entries mirror a into b so every kernel may load both
  // operand lanes unconditionally.
  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    if (!is_binary(v.op[k]) && v.b[k] != v.a[k]) {
      reporter.add(Rule::kShape, k,
                   "unary plan op does not mirror a into b (a = " +
                       std::to_string(v.a[k]) + ", b = " +
                       std::to_string(v.b[k]) + ")");
      ok = false;
    }
  }
  if (!ok) return false;

  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    ok = in_bounds(v.dst[k], v.n_slots, k, "plan dst", reporter) && ok;
    ok = in_bounds(v.a[k], v.n_slots, k, "plan operand a", reporter) && ok;
    ok = in_bounds(v.b[k], v.n_slots, k, "plan operand b", reporter) && ok;
  }
  return check_anchor_bounds(anchors, v.n_slots, reporter) && ok;
}

/// The plan-order rules, on a plan that passed check_structure: SSA,
/// def-before-use and exact ASAP levels in one walk, then the run
/// partition, then every slot defined.
template <typename Op>
void check_plan_order(const LevelPlanView<Op>& v, const Anchors& anchors,
                      Reporter& reporter) {
  const std::size_t n = v.op.size();
  // avail[slot] is one past the level of the slot's producer (base slots
  // sit at 0), so an op's exact ASAP level is the max over its operands'
  // avail — the rule util::build_level_plan applies, recomputed here
  // independently over the *published* order and levels.
  DefSet defs(v.n_slots, anchors, reporter);
  std::vector<std::uint32_t> avail(v.n_slots, 0);
  std::size_t level = 0;
  for (std::size_t k = 0; k < n && !reporter.full(); ++k) {
    while (v.level_begin[level + 1] <= k) ++level;
    const bool binary = is_binary(v.op[k]);
    if (!defs.is_defined(v.a[k])) {
      reporter.add(Rule::kDefBeforeUse, k,
                   "plan operand a reads " + slot_str(v.a[k]) +
                       " before its definition (plan order)");
    }
    if (binary && !defs.is_defined(v.b[k])) {
      reporter.add(Rule::kDefBeforeUse, k,
                   "plan operand b reads " + slot_str(v.b[k]) +
                       " before its definition (plan order)");
    }
    std::uint32_t asap = avail[v.a[k]];
    if (binary) asap = std::max(asap, avail[v.b[k]]);
    if (asap != level) {
      reporter.add(Rule::kLevelOrder, k,
                   "plan op published at level " + std::to_string(level) +
                       " but its exact ASAP level is " + std::to_string(asap));
    }
    if (!defs.define(v.dst[k])) {
      reporter.add(Rule::kSsa, k,
                   "plan op redefines " + slot_str(v.dst[k]) +
                       " (plan order)");
    }
    avail[v.dst[k]] = static_cast<std::uint32_t>(level) + 1;
  }

  // ---- opcode runs: uniform, level-bounded, maximal ----
  std::vector<std::uint8_t> is_run_begin(n + 1, 0);
  for (const std::uint32_t rb : v.run_begin) is_run_begin[rb] = 1;
  std::vector<std::uint8_t> is_level_begin(n + 1, 0);
  for (const std::uint32_t lb : v.level_begin) {
    is_level_begin[lb] = 1;
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

  // Every slot must be defined: executors read slots they never clear, so
  // an undefined one would read stale scratch.
  for (std::uint32_t s = 0; s < v.n_slots && !reporter.full(); ++s) {
    if (!defs.is_defined(s)) {
      reporter.add(Rule::kSlotLiveness, kWholePlan,
                   slot_str(s) + " is never defined");
    }
  }
}

// ---- ExecPlan: the tape rules ---------------------------------------------

/// Tape shape and bounds: the tape walks below index it by plan position
/// and by slot.
bool check_tape_structure(const ExecPlanView& v, Reporter& reporter) {
  if (v.tape.size() != v.op.size()) {
    reporter.add(Rule::kShape, kWholePlan,
                 "tape has " + std::to_string(v.tape.size()) +
                     " ops but plan has " + std::to_string(v.op.size()));
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < v.tape.size() && !reporter.full(); ++i) {
    const TapeOp& t = v.tape[i];
    ok = in_bounds(t.dst, v.n_slots, i, "tape dst", reporter) && ok;
    ok = in_bounds(t.a, v.n_slots, i, "tape operand a", reporter) && ok;
    if (is_binary(t.op)) {
      ok = in_bounds(t.b, v.n_slots, i, "tape operand b", reporter) && ok;
    }
  }
  return ok;
}

void verify_exec_impl(const ExecPlanView& v, const Options& options,
                      Reporter& reporter) {
  const Anchors anchors = anchors_of(v);
  const bool plan_ok = check_structure(v, anchors, reporter);
  if (!check_tape_structure(v, reporter) || !plan_ok) return;

  // ---- tape order: SSA + def-before-use (the tape is the optimizer's
  // output and must itself be a topological SSA program) ----
  const std::size_t n = v.op.size();
  DefSet tape_defs(v.n_slots, anchors, reporter);
  for (std::size_t i = 0; i < n && !reporter.full(); ++i) {
    const TapeOp& t = v.tape[i];
    if (!tape_defs.is_defined(t.a)) {
      reporter.add(Rule::kDefBeforeUse, i,
                   "tape operand a reads " + slot_str(t.a) +
                       " before its definition");
    }
    if (is_binary(t.op) && !tape_defs.is_defined(t.b)) {
      reporter.add(Rule::kDefBeforeUse, i,
                   "tape operand b reads " + slot_str(t.b) +
                       " before its definition");
    }
    if (!tape_defs.define(t.dst)) {
      reporter.add(Rule::kSsa, i,
                   "tape op redefines " + slot_str(t.dst));
    }
  }

  check_plan_order(v, anchors, reporter);

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
      const bool binary = is_binary(v.op[k]);
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
  // every op reaches an output and every defined slot survived for a
  // reason.
  if (!options.optimized) return;
  std::vector<std::uint8_t> live(v.n_slots, 0);
  for (const std::uint32_t slot : anchors.outputs) live[slot] = 1;
  for (std::size_t i = n; i-- > 0;) {
    const TapeOp& t = v.tape[i];
    if (live[t.dst] == 0) {
      if (!reporter.full()) {
        reporter.add(Rule::kDeadCode, i,
                     "tape op defines " + slot_str(t.dst) +
                         " which reaches no output (DCE missed it)");
      }
      continue;
    }
    live[t.a] = 1;
    if (is_binary(t.op)) live[t.b] = 1;
  }
  for (std::uint32_t s = 0; s < v.n_slots && !reporter.full(); ++s) {
    if (tape_defs.is_defined(s) && live[s] == 0) {
      reporter.add(Rule::kSlotLiveness, kWholePlan,
                   slot_str(s) +
                       " is dead but survived the liveness renumbering");
    }
  }
}

// ---- EvalPlan: the signal bounds ------------------------------------------

void verify_eval_impl(const EvalPlanView& v, Reporter& reporter) {
  const Anchors anchors = anchors_of(v);
  bool ok = check_structure(v, anchors, reporter);
  // Inputs, constants, and outputs are circuit signals, and signal s lives
  // in slot s.
  if (v.n_slots < v.n_signals) {
    reporter.add(Rule::kShape, kWholePlan,
                 "n_slots " + std::to_string(v.n_slots) +
                     " < n_signals " + std::to_string(v.n_signals) +
                     " (signal s must live in slot s)");
    ok = false;
  }
  ok = check_anchor_bounds(anchors, v.n_signals, reporter) && ok;
  if (!ok) return;
  check_plan_order(v, anchors, reporter);
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
  return {LevelPlanView::of(compiled.n_slots(), compiled.plan()),
          compiled.tape(), compiled.input_slot(), compiled.const_slots(),
          compiled.outputs()};
}

EvalPlanView EvalPlanView::of(const circuit::EvalPlan& plan) {
  return {LevelPlanView::of(plan.n_slots(), plan.plan()), plan.n_signals(),
          plan.input_signals(), plan.const_slots(),
          plan.output_constraints()};
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

bool initial_verify_plans() {
#ifdef NDEBUG
  constexpr int kDefault = 0;
#else
  constexpr int kDefault = 1;
#endif
  return util::env_int("HTS_VERIFY_PLANS", kDefault) != 0;
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
