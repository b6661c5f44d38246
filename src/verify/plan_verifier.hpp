#pragma once

// Plan-IR verifier: proves a compiled plan well-formed before it runs.
//
// Both compiled evaluators execute one plan format (util::LevelPlan, see
// util/plan_order.hpp) whose soundness the kernels assume rather than
// check: the engine's float tape (prob::ExecPlan) reuses one tile scratch
// across tiles on the promise that every slot is defined before it is
// read, and both it and the word evaluator (circuit::EvalPlan) stream whole
// same-opcode runs through one kernel on the promise that a run never
// mixes opcodes or crosses a level.  A bug in levelization or any optimizer
// rewrite would not crash — it would silently mis-evaluate, and the sampler
// would harvest garbage that only a downstream differential test might
// catch.  This module makes the promises checkable: every structural
// invariant the executors rely on is restated here as an independent rule
// over the finished plan, implemented against the *specification* (exact
// ASAP levels, maximal runs, operand disjointness) rather than by
// re-running util::build_level_plan.
//
// Rules, in the order they are checked.  The shared rules run once, over
// the LevelPlanView both plan kinds derive from; the ExecPlan-only rules
// cover the tape the plan was built from, and EvalPlan adds only its
// signal bounds (signal s lives in slot s).
//   kShape        parallel arrays agree in length; level/run boundary
//                 arrays are monotone partitions of [0, n_ops); unary plan
//                 entries mirror operand `a` into `b` (kernels load both).
//                 ExecPlan: the tape has one op per plan entry.  EvalPlan:
//                 n_slots >= n_signals.
//   kSlotBounds   every slot index (plan, inputs, constants, outputs) lies
//                 inside [0, n_slots).  ExecPlan: the tape's too.  EvalPlan:
//                 inputs, constants and outputs lie inside [0, n_signals).
//   kSsa          each slot is defined exactly once (base definitions —
//                 inputs and constants — included); checked over the plan
//                 order, and for ExecPlan over the tape independently.
//   kDefBeforeUse an op's operands are defined by earlier ops (or are base
//                 slots); checked over the plan order (so it is itself a
//                 topological order) and the ExecPlan tape.
//   kLevelOrder   the published level of every plan op equals its exact
//                 ASAP level (one past the highest operand level, base
//                 slots below level 0) — a swapped or padded levelization
//                 cannot hide.
//   kRunPartition runs are uniform in opcode, never cross a level boundary,
//                 and are maximal (adjacent runs in one level differ in
//                 opcode).
//   kSlotLiveness every slot is defined by an input, a constant, or an op;
//                 optimized ExecPlan tapes additionally prove every slot
//                 live, so the liveness renumbering compacted correctly.
//   kPermutation  ExecPlan: the plan executes exactly the tape's multiset of
//                 ops — a bijection matched through the (SSA-unique) dst.
//   kDeadCode     optimized ExecPlan tapes only: every op reaches an output
//                 through the use-def chain (DCE left nothing dead behind).
//
// Failures come back as structured Diagnostics (rule, op index, message) in
// a Report; nothing throws and nothing aborts, so callers choose the
// policy.  The compile-time hooks (CompiledCircuit / EvalPlan constructors)
// treat a non-empty report as a fatal invariant violation via HTS_CHECK;
// they are compiled in unconditionally and gated by the runtime switch
// below (on by default when NDEBUG is undefined, as HTS_DCHECK is; the
// HTS_VERIFY_PLANS environment variable overrides it at process start).
//
// The *_view entry points verify raw arrays with no construction-path
// coupling: tests mutate a healthy plan's arrays directly and assert the
// verifier pins the exact rule broken.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/eval_plan.hpp"
#include "prob/compiled.hpp"
#include "util/plan_order.hpp"

namespace hts::verify {

enum class Rule : std::uint8_t {
  kShape,
  kSlotBounds,
  kSsa,
  kDefBeforeUse,
  kLevelOrder,
  kRunPartition,
  kPermutation,
  kDeadCode,
  kSlotLiveness,
};

[[nodiscard]] const char* rule_name(Rule rule);

/// Marks a diagnostic that concerns the plan as a whole rather than one op.
inline constexpr std::size_t kWholePlan = static_cast<std::size_t>(-1);

struct Diagnostic {
  Rule rule;
  /// Index of the offending op — a plan position for plan-order rules, a
  /// tape index for tape-order rules (the message says which) — or
  /// kWholePlan for whole-plan findings (shape, slot liveness).
  std::size_t op_index = kWholePlan;
  std::string message;
};

struct Report {
  std::vector<Diagnostic> diagnostics;
  /// True when the cap of 16 diagnostics stopped the scan early (the plan
  /// may hold more violations than reported).
  bool truncated = false;

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
  /// Human-readable rendering, one "rule@op: message" line per diagnostic.
  [[nodiscard]] std::string to_string() const;
};

struct Options {
  /// Enables the rules that only hold after the optimizer ran (kDeadCode,
  /// the liveness half of kSlotLiveness): a raw tape legitimately carries
  /// ops that reach no output.
  bool optimized = false;
};

// ---- raw-array views ------------------------------------------------------
// Decoupled from the owning objects so tests can verify deliberately
// corrupted copies.  Spans alias caller storage; the caller keeps it alive
// across the verify call.

/// The levelized arrays both plan kinds share (util::LevelPlan's members,
/// same order and meaning) and the slot count they index.
template <typename Op>
struct LevelPlanView {
  std::size_t n_slots = 0;
  std::span<const Op> op;
  std::span<const std::uint32_t> dst;
  std::span<const std::uint32_t> a;
  std::span<const std::uint32_t> b;
  std::span<const std::uint32_t> level_begin;
  std::span<const std::uint32_t> run_begin;

  [[nodiscard]] static LevelPlanView of(std::size_t n_slots,
                                        const util::LevelPlan<Op>& plan) {
    return {n_slots,  plan.op,          plan.dst,      plan.a,
            plan.b,   plan.level_begin, plan.run_begin};
  }
};

struct ExecPlanView : LevelPlanView<prob::OpCode> {
  std::span<const prob::TapeOp> tape;
  // Base definitions and roots.
  std::span<const std::int32_t> input_slot;  // kNoSlot entries are skipped
  std::span<const prob::CompiledCircuit::ConstSlot> const_slots;
  std::span<const prob::CompiledCircuit::Output> outputs;

  [[nodiscard]] static ExecPlanView of(const prob::CompiledCircuit& compiled);
};

struct EvalPlanView : LevelPlanView<circuit::WordOp> {
  std::size_t n_signals = 0;
  std::span<const circuit::SignalId> inputs;
  std::span<const circuit::EvalPlan::ConstSlot> const_slots;
  std::span<const circuit::OutputConstraint> outputs;

  [[nodiscard]] static EvalPlanView of(const circuit::EvalPlan& plan);
};

// ---- entry points ---------------------------------------------------------

[[nodiscard]] Report verify_exec_plan(const ExecPlanView& view,
                                      Options options);
[[nodiscard]] Report verify_eval_plan(const EvalPlanView& view);

/// Convenience overload; Options::optimized follows the circuit's own
/// compile options.
[[nodiscard]] Report verify_exec_plan(const prob::CompiledCircuit& compiled);
[[nodiscard]] Report verify_eval_plan(const circuit::EvalPlan& plan);

// ---- runtime switch -------------------------------------------------------

/// Whether the constructor hooks verify every plan as it is built.  The
/// process-start default is on when NDEBUG is undefined (Debug builds) and
/// off otherwise, overridden by a non-zero/zero HTS_VERIFY_PLANS environment
/// variable — so one Debug build can be timed with and without
/// verification.
[[nodiscard]] bool plans_verified();

/// Flips the constructor hooks at runtime (tests use this to exercise both
/// paths in one binary).
void set_verify_plans(bool on);

}  // namespace hts::verify
