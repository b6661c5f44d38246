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
// is off) the tape is *levelized*: ops are assigned ASAP levels over the
// slot dependency DAG and regrouped into a structure-of-arrays ExecPlan.
// Ops within a level are mutually independent (every operand is produced at
// a strictly lower level), so each level can be sorted by opcode into long
// same-opcode runs without changing any result.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"

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

struct TapeOp {
  OpCode op;
  std::uint32_t dst;
  std::uint32_t a;
  std::uint32_t b;  // unused for kCopy/kNot
};

/// True for the opcodes that read two operand slots.
[[nodiscard]] constexpr bool op_is_binary(OpCode op) {
  return op != OpCode::kCopy && op != OpCode::kNot;
}

inline constexpr std::int32_t kNoSlot = -1;

/// What the post-compile optimization pass did (bench/tape_engine reports
/// these; the acceptance bar is a non-trivial ops_before -> ops_after drop).
/// The level fields at the bottom describe the execution plan and are filled
/// for raw tapes too; everything else is zero when Options::optimize is off.
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
  // Execution-plan shape (see ExecPlan): level count and the widest level.
  std::size_t n_levels = 0;
  std::size_t max_level_width = 0;
  // Opcode-run shape (see ExecPlan::run_begin): how many same-opcode runs
  // the plan order produces and the longest one.  Mean run length is
  // ops_after / n_opcode_runs; longer runs mean fewer kernel-dispatch
  // switches per sweep.
  std::size_t n_opcode_runs = 0;
  std::size_t max_run_length = 0;
};

/// Levelized, structure-of-arrays view of the tape.
///
/// Ops are regrouped by ASAP level; within a level every operand slot is
/// produced at a strictly lower level, so the level's ops can execute in any
/// order for the *forward* pass.  The backward pass accumulates gradients
/// into operand slots, and two ops of one level may share an operand; the
/// plan order (reversed) fixes the order of those accumulations, so every
/// executor that walks the plan gets bit-identical gradients.
struct ExecPlan {
  // Parallel arrays, one entry per tape op, ordered by (level, opcode,
  // tape index).
  std::vector<OpCode> op;
  std::vector<std::uint32_t> dst;
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  /// Level l spans plan indices [level_begin[l], level_begin[l + 1]).
  std::vector<std::uint32_t> level_begin;
  /// Opcode runs: run k spans plan indices [run_begin[k], run_begin[k + 1]),
  /// every op of a run shares one opcode, and runs never cross a level
  /// boundary.  The engine dispatches kernels once per run (a run-length
  /// inner loop replaces the per-op switch); the plan's within-level opcode
  /// order makes one run per (level, opcode).
  std::vector<std::uint32_t> run_begin;

  [[nodiscard]] std::size_t n_ops() const { return op.size(); }
  [[nodiscard]] std::size_t n_runs() const {
    return run_begin.empty() ? 0 : run_begin.size() - 1;
  }
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
};

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

  /// Optimization-pass statistics; the level fields are filled for raw
  /// tapes too, the rewrite counters only when Options::optimize is on.
  [[nodiscard]] const OptStats& opt_stats() const { return opt_stats_; }

  /// Levelized execution plan over tape(); always built (raw or optimized),
  /// it is what the engine executes.
  [[nodiscard]] const ExecPlan& plan() const { return plan_; }

 private:
  void optimize();
  void build_plan();

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
