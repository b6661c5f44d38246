#pragma once

// Compiles a circuit into a flat tape of binary probabilistic operations.
//
// Gates are relaxed per Table I of the paper (AND -> P1*P2, OR ->
// 1-(1-P1)(1-P2), NOT -> 1-P, XOR -> P1+P2-2*P1*P2); n-ary gates binarize
// into chains over temporary slots.  The tape is evaluated row-independently
// across the batch, which is exactly what makes the method data-parallel
// ("GPU-friendly").
//
// After raw compilation an optional optimization pass (Options::optimize,
// default on) rewrites the tape:
//   - copy propagation: kCopy ops (Buf gates, 1-ary chains) vanish; consumers
//     read the source slot directly,
//   - exact constant folding: ops over kConst0/kConst1 operands fold when the
//     float result is bit-identical to executing them (x*1 = x, x*0 = 0,
//     x+0-x*0 = x, ...); inexact folds (e.g. OR with 1) are left alone so an
//     optimized tape always computes bit-identical activations,
//   - NOT fusion: a kNot whose operand has no other reader merges into the
//     producing kAnd/kOr/kXor as kAndNot/kOrNot/kXnor, so NAND/NOR/XNOR
//     gates cost one tape op instead of two,
//   - common-subexpression elimination: identical (op, a, b) triples —
//     commutative operands canonicalized — compute bit-identical values, so
//     later duplicates alias the first occurrence (duplicate Tseitin logic
//     collapses; one topological walk catches chains of duplicates),
//   - dead-code elimination: ops not reaching any output are dropped
//     (unconstrained paths need no learning; they harden from random V),
//   - liveness renumbering: surviving slots are compacted so n_slots — and
//     with it activation/gradient memory and the engine's cache footprint —
//     shrinks with the tape.
// Every rewrite preserves forward activations bit-for-bit; OptStats records
// what the pass did for benches and tests.
//
// After optimization (or directly after raw compilation when the optimizer
// is off) the tape is *levelized* into an ExecPlan, the plan format the
// harvest side's circuit::EvalPlan shares (util/plan_order.hpp): ops get
// ASAP levels over the slot dependency DAG, and each level is sorted by
// opcode into long same-opcode runs without changing any result.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "util/plan_order.hpp"

namespace hts::prob {

enum class OpCode : std::uint8_t {
  kCopy,
  kNot,
  kAnd,
  kOr,
  kXor,
  // Fused inverted forms, introduced by the optimizer only.  Their kernels
  // replay the exact float sequence of the two-op versions (e.g. kAndNot is
  // 1 - a*b with the product rounded first), keeping optimized and raw tapes
  // bit-identical.
  kAndNot,
  kOrNot,
  kXnor,
};

/// One tape op; `b` is unused for kCopy/kNot.
using TapeOp = util::PlanOp<OpCode>;

/// True for the opcodes that read two operand slots.
[[nodiscard]] constexpr bool op_is_binary(OpCode op) {
  return op != OpCode::kCopy && op != OpCode::kNot;
}

inline constexpr std::int32_t kNoSlot = -1;

/// What the post-compile optimization pass did (bench/tape_engine reports
/// these; the acceptance bar is a non-trivial ops_before -> ops_after drop).
/// All zero when Options::optimize is off; plan() reports the plan's shape.
struct OptStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t slots_before = 0;
  std::size_t slots_after = 0;
  std::size_t copies_propagated = 0;
  std::size_t consts_folded = 0;
  std::size_t cse_eliminated = 0;
  std::size_t nots_fused = 0;
  std::size_t ops_dead = 0;
};

/// The levelized tape the engine executes.  The backward pass accumulates
/// gradients into operand slots, and two ops of one level may share an
/// operand; the plan order (reversed) fixes the order of those
/// accumulations, so every executor that walks the plan gets bit-identical
/// gradients.
using ExecPlan = util::LevelPlan<OpCode>;

class CompiledCircuit {
 public:
  struct Options {
    /// Compile only the constrained cone (ablation: unconstrained paths need
    /// no learning, so their gates can be skipped during GD and evaluated
    /// only at hardening time).
    bool cone_only = false;
    /// Run the tape optimizer after compilation (see file comment).  Off
    /// preserves the raw gate-per-gate tape for A/B tests.
    bool optimize = true;
  };

  explicit CompiledCircuit(const circuit::Circuit& circuit)
      : CompiledCircuit(circuit, Options{}) {}
  CompiledCircuit(const circuit::Circuit& circuit, Options options);

  /// The options this circuit was compiled with (the plan-IR verifier keys
  /// its optimized-only rules off Options::optimize).
  [[nodiscard]] const Options& options() const { return options_; }

  [[nodiscard]] std::size_t n_slots() const { return n_slots_; }
  [[nodiscard]] std::size_t n_circuit_inputs() const { return input_slot_.size(); }
  [[nodiscard]] const std::vector<TapeOp>& tape() const { return tape_; }

  /// Slot of circuit input i, or kNoSlot when outside the compiled cone (or
  /// optimized away because nothing constrained reads it).
  [[nodiscard]] const std::vector<std::int32_t>& input_slot() const {
    return input_slot_;
  }

  /// Slot of a circuit signal (kNoSlot if not compiled or optimized away).
  [[nodiscard]] std::int32_t signal_slot(circuit::SignalId id) const {
    return signal_slot_[id];
  }

  struct Output {
    std::uint32_t slot;
    float target;  // 0.0 or 1.0
  };
  [[nodiscard]] const std::vector<Output>& outputs() const { return outputs_; }

  struct ConstSlot {
    std::uint32_t slot;
    float value;
  };
  [[nodiscard]] const std::vector<ConstSlot>& const_slots() const {
    return const_slots_;
  }

  /// Number of executed probabilistic ops per batch row per forward pass.
  [[nodiscard]] std::size_t n_ops() const { return tape_.size(); }

  /// Optimization-pass statistics (zero when Options::optimize is off).
  [[nodiscard]] const OptStats& opt_stats() const { return opt_stats_; }

  /// Levelized execution plan over tape(); always built (raw or optimized),
  /// it is what the engine executes.
  [[nodiscard]] const ExecPlan& plan() const { return plan_; }

 private:
  void optimize();

  Options options_;
  std::size_t n_slots_ = 0;
  std::vector<TapeOp> tape_;
  std::vector<std::int32_t> input_slot_;
  std::vector<std::int32_t> signal_slot_;
  std::vector<Output> outputs_;
  std::vector<ConstSlot> const_slots_;
  OptStats opt_stats_;
  ExecPlan plan_;
};

/// True for opcodes whose operands may be swapped without changing the
/// kernel's float result bit-for-bit (multiplication and addition are IEEE
/// commutative, and the XOR kernel rounds the product once either way).
[[nodiscard]] constexpr bool op_is_commutative(OpCode op) {
  return op == OpCode::kAnd || op == OpCode::kOr || op == OpCode::kXor ||
         op == OpCode::kAndNot || op == OpCode::kOrNot || op == OpCode::kXnor;
}

}  // namespace hts::prob
