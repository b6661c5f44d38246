#include "circuit/circuit.hpp"

#include <algorithm>

namespace hts::circuit {

const char* gate_type_name(GateType type) {
  switch (type) {
    case GateType::kInput:
      return "INPUT";
    case GateType::kConst0:
      return "CONST0";
    case GateType::kConst1:
      return "CONST1";
    case GateType::kBuf:
      return "BUF";
    case GateType::kNot:
      return "NOT";
    case GateType::kAnd:
      return "AND";
    case GateType::kOr:
      return "OR";
    case GateType::kXor:
      return "XOR";
    case GateType::kNand:
      return "NAND";
    case GateType::kNor:
      return "NOR";
    case GateType::kXnor:
      return "XNOR";
  }
  return "?";
}

SignalId Circuit::add_input(std::string name) {
  const auto id = static_cast<SignalId>(gates_.size());
  gates_.push_back(Gate{GateType::kInput, {}});
  names_.push_back(std::move(name));
  inputs_.push_back(id);
  return id;
}

SignalId Circuit::add_const(bool value) {
  const auto id = static_cast<SignalId>(gates_.size());
  gates_.push_back(Gate{value ? GateType::kConst1 : GateType::kConst0, {}});
  names_.emplace_back();
  return id;
}

SignalId Circuit::add_gate(GateType type, std::vector<SignalId> fanins,
                           std::string name) {
  HTS_CHECK_MSG(type != GateType::kInput, "use add_input for primary inputs");
  const auto id = static_cast<SignalId>(gates_.size());
  for (const SignalId fanin : fanins) {
    HTS_CHECK_MSG(fanin < id, "gate fanin must reference an existing signal");
  }
  switch (type) {
    case GateType::kBuf:
    case GateType::kNot:
      HTS_CHECK_MSG(fanins.size() == 1, "BUF/NOT take exactly one fanin");
      break;
    case GateType::kConst0:
    case GateType::kConst1:
      HTS_CHECK_MSG(fanins.empty(), "constants take no fanin");
      break;
    default:
      HTS_CHECK_MSG(!fanins.empty(), "n-ary gate needs at least one fanin");
      break;
  }
  gates_.push_back(Gate{type, std::move(fanins)});
  names_.push_back(std::move(name));
  return id;
}

void Circuit::add_output(SignalId signal, bool target) {
  HTS_CHECK(signal < gates_.size());
  outputs_.push_back(OutputConstraint{signal, target});
}

std::vector<std::uint8_t> Circuit::constrained_cone() const {
  std::vector<std::uint8_t> in_cone(gates_.size(), 0);
  std::vector<SignalId> stack;
  for (const OutputConstraint& out : outputs_) stack.push_back(out.signal);
  while (!stack.empty()) {
    const SignalId id = stack.back();
    stack.pop_back();
    if (in_cone[id] != 0) continue;
    in_cone[id] = 1;
    for (const SignalId fanin : gates_[id].fanins) stack.push_back(fanin);
  }
  return in_cone;
}

std::vector<std::uint32_t> Circuit::levels() const {
  std::vector<std::uint32_t> level(gates_.size(), 0);
  for (SignalId id = 0; id < gates_.size(); ++id) {
    std::uint32_t max_fanin = 0;
    for (const SignalId fanin : gates_[id].fanins) {
      max_fanin = std::max(max_fanin, level[fanin] + 1);
    }
    level[id] = max_fanin;
  }
  return level;
}

std::uint32_t Circuit::depth() const {
  const auto lv = levels();
  return lv.empty() ? 0 : *std::max_element(lv.begin(), lv.end());
}

std::uint64_t Circuit::op_count_2input() const {
  std::uint64_t ops = 0;
  for (const Gate& g : gates_) {
    switch (g.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
      case GateType::kBuf:
        break;
      case GateType::kNot:
        ops += 1;
        break;
      case GateType::kAnd:
      case GateType::kOr:
      case GateType::kXor:
        ops += g.fanins.size() - 1;
        break;
      case GateType::kNand:
      case GateType::kNor:
      case GateType::kXnor:
        ops += g.fanins.size();  // (n-1) + the inverter
        break;
    }
  }
  return ops;
}

namespace {

template <typename Word>
Word eval_gate(const Gate& g, const std::vector<Word>& value, Word ones) {
  switch (g.type) {
    case GateType::kInput:
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ones;
    case GateType::kBuf:
      return value[g.fanins[0]];
    case GateType::kNot:
      return static_cast<Word>(value[g.fanins[0]] ^ ones);
    case GateType::kAnd:
    case GateType::kNand: {
      Word acc = ones;
      for (const SignalId f : g.fanins) acc &= value[f];
      return g.type == GateType::kNand ? static_cast<Word>(acc ^ ones) : acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      Word acc = 0;
      for (const SignalId f : g.fanins) acc |= value[f];
      return g.type == GateType::kNor ? static_cast<Word>(acc ^ ones) : acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      Word acc = 0;
      for (const SignalId f : g.fanins) acc ^= value[f];
      return g.type == GateType::kXnor ? static_cast<Word>(acc ^ ones) : acc;
    }
  }
  return 0;
}

}  // namespace

std::vector<std::uint8_t> Circuit::eval(
    const std::vector<std::uint8_t>& input_values) const {
  HTS_CHECK(input_values.size() == inputs_.size());
  std::vector<std::uint8_t> value(gates_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    value[inputs_[i]] = input_values[i] != 0 ? 1 : 0;
  }
  for (SignalId id = 0; id < gates_.size(); ++id) {
    if (gates_[id].type == GateType::kInput) continue;
    value[id] = eval_gate<std::uint8_t>(gates_[id], value, 1);
  }
  return value;
}

std::vector<std::uint64_t> Circuit::eval64(
    const std::vector<std::uint64_t>& input_words) const {
  HTS_CHECK(input_words.size() == inputs_.size());
  std::vector<std::uint64_t> value(gates_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) value[inputs_[i]] = input_words[i];
  for (SignalId id = 0; id < gates_.size(); ++id) {
    if (gates_[id].type == GateType::kInput) continue;
    value[id] = eval_gate<std::uint64_t>(gates_[id], value, ~0ULL);
  }
  return value;
}

bool Circuit::outputs_satisfied(const std::vector<std::uint8_t>& signal_values) const {
  for (const OutputConstraint& out : outputs_) {
    if ((signal_values[out.signal] != 0) != out.target) return false;
  }
  return true;
}

std::uint64_t Circuit::outputs_satisfied64(
    const std::vector<std::uint64_t>& signal_words) const {
  std::uint64_t ok = ~0ULL;
  for (const OutputConstraint& out : outputs_) {
    const std::uint64_t word = signal_words[out.signal];
    ok &= out.target ? word : ~word;
  }
  return ok;
}

}  // namespace hts::circuit
