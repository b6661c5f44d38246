#pragma once

// Compiled, levelized, word-parallel evaluation plan for circuit::Circuit.
//
// Circuit::eval64 is a faithful but slow reference: every call re-allocates a
// per-signal value vector, walks the gate list with a per-gate type switch,
// and loops n-ary fanins one at a time.  That interpreter sits on the harvest
// hot path — every hardened batch is validated 64 rows per word — so this
// module compiles the discrete side of the loop into the same plan type the
// engine executes (util::LevelPlan, built by util/plan_order.hpp):
//
//   - gates binarize into 2-input word ops (balanced reduction trees, so an
//     n-ary gate costs ceil(log2 n) levels instead of a depth-(n-1) chain;
//     bitwise logic is associative, so the result is exactly eval64's),
//   - the shared builder levelizes them and sorts each level by opcode, so
//     execution dispatches once per same-opcode run and streams the run
//     body through a tight inner loop instead of switching per op,
//   - evaluation is blocked kBlockWords words at a time: one tensor::simd
//     u64x4 op evaluates a gate for 4 x 64 = 256 batch rows.
//
// Signal s lives in slot s (temporaries for binarized trees are appended
// after the signals), so per-signal words read straight out of the scratch
// buffer — the harvester projects solutions and the differential tests
// compare against eval64 without any translation table.  All ops are exact
// bitwise logic: the plan is bit-identical to Circuit::eval64 by
// construction, and tests/harvest_diff_test.cpp fuzzes that claim.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "util/plan_order.hpp"

namespace hts::circuit {

/// 2-input bitwise opcodes of the compiled plan.  The inverted forms fold a
/// NAND/NOR/XNOR gate's trailing complement into its final tree op, so an
/// inverted gate costs no extra op.
enum class WordOp : std::uint8_t {
  kCopy,
  kNot,
  kAnd,
  kOr,
  kXor,
  kNand,
  kNor,
  kXnor,
};

[[nodiscard]] constexpr bool word_op_is_binary(WordOp op) {
  return op != WordOp::kCopy && op != WordOp::kNot;
}

class EvalPlan {
 public:
  /// Words evaluated per block: one u64x4 vector op per plan op.
  static constexpr std::size_t kBlockWords = 4;

  struct ConstSlot {
    std::uint32_t slot;
    std::uint64_t value;  // 0 or ~0
  };

  explicit EvalPlan(const Circuit& circuit);

  [[nodiscard]] std::size_t n_slots() const { return n_slots_; }
  [[nodiscard]] std::size_t n_signals() const { return n_signals_; }
  [[nodiscard]] std::size_t n_inputs() const { return input_signal_.size(); }

  /// Scratch u64s one eval_block call needs (layout: slot-major,
  /// slots[slot * kBlockWords + lane]).
  [[nodiscard]] std::size_t scratch_words() const {
    return n_slots_ * kBlockWords;
  }

  /// Evaluates words [w0, w0 + count) of a packed batch into `slots`
  /// (scratch_words() u64s; lane = word - w0).  `packed` is the harden()
  /// layout: packed[input * n_words + w] carries rows [64w, 64w + 63] of
  /// circuit input `input`.  count <= kBlockWords; lanes past count hold
  /// zero-input evaluations and must not be read.
  void eval_block(const std::uint64_t* packed, std::size_t n_words,
                  std::size_t w0, std::size_t count,
                  std::uint64_t* slots) const;

  /// Per-row satisfied mask of one evaluated lane — bit r set iff row r of
  /// that word meets every output constraint (Circuit::outputs_satisfied64).
  [[nodiscard]] std::uint64_t satisfied(const std::uint64_t* slots,
                                        std::size_t lane) const;

  /// Word of signal `id` in evaluated lane `lane` (signal s == slot s).
  [[nodiscard]] static std::uint64_t signal_word(const std::uint64_t* slots,
                                                 SignalId id,
                                                 std::size_t lane) {
    return slots[static_cast<std::size_t>(id) * kBlockWords + lane];
  }

  /// Drop-in replacement for Circuit::eval64 (allocates; for tests and
  /// one-off callers — the hot path is eval_block over reused scratch).
  [[nodiscard]] std::vector<std::uint64_t> eval64(
      const std::vector<std::uint64_t>& input_words) const;

  /// The levelized word ops eval_block executes; read-only, for the plan-IR
  /// verifier (verify/plan_verifier.hpp), benches and structural tests.
  [[nodiscard]] const util::LevelPlan<WordOp>& plan() const { return plan_; }
  [[nodiscard]] const std::vector<SignalId>& input_signals() const {
    return input_signal_;
  }
  [[nodiscard]] const std::vector<ConstSlot>& const_slots() const {
    return const_slots_;
  }
  [[nodiscard]] const std::vector<OutputConstraint>& output_constraints()
      const {
    return outputs_;
  }

 private:
  std::size_t n_signals_ = 0;
  std::size_t n_slots_ = 0;
  util::LevelPlan<WordOp> plan_;
  /// Signal ids of the circuit's inputs, in inputs() order.
  std::vector<SignalId> input_signal_;
  std::vector<ConstSlot> const_slots_;
  std::vector<OutputConstraint> outputs_;
};

}  // namespace hts::circuit
