#pragma once

// Multi-level, multi-output Boolean network IR.
//
// This is the target representation of the paper's transformation: gates
// over signals, primary inputs, and a list of (output signal, target value)
// constraints.  Signals are created in topological order by construction
// (a gate may only reference existing signals), so evaluation is a single
// forward sweep.  Gates are n-ary; the probabilistic compiler (hts::prob)
// binarizes them.

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace hts::circuit {

using SignalId = std::uint32_t;
inline constexpr SignalId kNoSignal = static_cast<SignalId>(-1);

enum class GateType : std::uint8_t {
  kInput,   // primary input; no fanin
  kConst0,  // constant driver
  kConst1,
  kBuf,  // identity (1 fanin)
  kNot,  // inverter (1 fanin)
  kAnd,  // n-ary
  kOr,
  kXor,
  kNand,
  kNor,
  kXnor,
};

[[nodiscard]] const char* gate_type_name(GateType type);

struct Gate {
  GateType type = GateType::kInput;
  std::vector<SignalId> fanins;
};

/// An output constraint: this signal must evaluate to `target`.
struct OutputConstraint {
  SignalId signal = kNoSignal;
  bool target = true;
};

class Circuit {
 public:
  // --- construction -------------------------------------------------------

  SignalId add_input(std::string name = "");
  SignalId add_const(bool value);
  /// Fanins must all be < current signal count (enforces acyclicity).
  SignalId add_gate(GateType type, std::vector<SignalId> fanins,
                    std::string name = "");

  void add_output(SignalId signal, bool target = true);

  void set_name(SignalId signal, std::string name) { names_[signal] = std::move(name); }

  // --- structure ----------------------------------------------------------

  [[nodiscard]] std::size_t n_signals() const { return gates_.size(); }
  [[nodiscard]] std::size_t n_inputs() const { return inputs_.size(); }
  [[nodiscard]] std::size_t n_gates() const { return gates_.size() - inputs_.size(); }
  [[nodiscard]] const std::vector<SignalId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<OutputConstraint>& outputs() const { return outputs_; }
  [[nodiscard]] const Gate& gate(SignalId id) const { return gates_[id]; }
  [[nodiscard]] const std::string& name(SignalId id) const { return names_[id]; }

  /// Signals in the transitive fanin of any constrained output, including
  /// the outputs themselves ("constrained paths" in the paper; everything
  /// else lies on unconstrained paths).
  [[nodiscard]] std::vector<std::uint8_t> constrained_cone() const;

  /// Logic depth (inputs/constants at level 0).
  [[nodiscard]] std::vector<std::uint32_t> levels() const;
  [[nodiscard]] std::uint32_t depth() const;

  /// 2-input gate-equivalent op count: n-ary gates cost (n-1), BUF costs 0,
  /// NOT costs 1; NAND/NOR/XNOR cost n (the gate plus its inverter).  This
  /// is the denominator of the paper's Fig. 4 (middle) reduction rate.
  [[nodiscard]] std::uint64_t op_count_2input() const;

  // --- evaluation ----------------------------------------------------------

  /// Forward-evaluates all signals given values for inputs() in order.
  [[nodiscard]] std::vector<std::uint8_t> eval(
      const std::vector<std::uint8_t>& input_values) const;

  /// Bit-parallel forward evaluation: each word carries 64 independent
  /// samples.  input_words is indexed like inputs(); returns per-signal
  /// words.  This is the hardened-solution verification backend.
  [[nodiscard]] std::vector<std::uint64_t> eval64(
      const std::vector<std::uint64_t>& input_words) const;

  /// True iff the evaluation (per-signal values) meets every output
  /// constraint.
  [[nodiscard]] bool outputs_satisfied(const std::vector<std::uint8_t>& signal_values) const;

  /// Bitmask (per sample lane) of lanes meeting all output constraints.
  [[nodiscard]] std::uint64_t outputs_satisfied64(
      const std::vector<std::uint64_t>& signal_words) const;

 private:
  std::vector<Gate> gates_;
  std::vector<std::string> names_;
  std::vector<SignalId> inputs_;
  std::vector<OutputConstraint> outputs_;
};

}  // namespace hts::circuit
