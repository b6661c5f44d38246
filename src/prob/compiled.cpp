#include "prob/compiled.hpp"

#include <array>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "verify/plan_verifier.hpp"

namespace hts::prob {

CompiledCircuit::CompiledCircuit(const circuit::Circuit& circuit, Options options)
    : options_(options) {
  const std::vector<std::uint8_t> cone =
      options.cone_only ? circuit.constrained_cone()
                        : std::vector<std::uint8_t>(circuit.n_signals(), 1);

  signal_slot_.assign(circuit.n_signals(), kNoSlot);
  input_slot_.assign(circuit.n_inputs(), kNoSlot);

  auto fresh_slot = [this] { return static_cast<std::uint32_t>(n_slots_++); };

  for (circuit::SignalId s = 0; s < circuit.n_signals(); ++s) {
    if (cone[s] == 0) continue;
    const circuit::Gate& gate = circuit.gate(s);
    using circuit::GateType;
    switch (gate.type) {
      case GateType::kInput:
        signal_slot_[s] = static_cast<std::int32_t>(fresh_slot());
        break;
      case GateType::kConst0:
      case GateType::kConst1: {
        const std::uint32_t slot = fresh_slot();
        signal_slot_[s] = static_cast<std::int32_t>(slot);
        const_slots_.push_back(
            ConstSlot{slot, gate.type == GateType::kConst1 ? 1.0f : 0.0f});
        break;
      }
      case GateType::kBuf: {
        const std::uint32_t slot = fresh_slot();
        signal_slot_[s] = static_cast<std::int32_t>(slot);
        tape_.push_back(TapeOp{OpCode::kCopy, slot,
                               static_cast<std::uint32_t>(signal_slot_[gate.fanins[0]]),
                               0});
        break;
      }
      case GateType::kNot: {
        const std::uint32_t slot = fresh_slot();
        signal_slot_[s] = static_cast<std::int32_t>(slot);
        tape_.push_back(TapeOp{OpCode::kNot, slot,
                               static_cast<std::uint32_t>(signal_slot_[gate.fanins[0]]),
                               0});
        break;
      }
      case GateType::kAnd:
      case GateType::kOr:
      case GateType::kXor:
      case GateType::kNand:
      case GateType::kNor:
      case GateType::kXnor: {
        const OpCode op = (gate.type == GateType::kAnd || gate.type == GateType::kNand)
                              ? OpCode::kAnd
                          : (gate.type == GateType::kOr || gate.type == GateType::kNor)
                              ? OpCode::kOr
                              : OpCode::kXor;
        const bool invert = gate.type == GateType::kNand ||
                            gate.type == GateType::kNor ||
                            gate.type == GateType::kXnor;
        // Left-to-right chain over temporaries; the final op (or a trailing
        // NOT) lands in the gate's own slot.
        std::uint32_t acc = static_cast<std::uint32_t>(signal_slot_[gate.fanins[0]]);
        if (gate.fanins.size() == 1) {
          const std::uint32_t slot = fresh_slot();
          signal_slot_[s] = static_cast<std::int32_t>(slot);
          tape_.push_back(TapeOp{invert ? OpCode::kNot : OpCode::kCopy, slot, acc, 0});
          break;
        }
        for (std::size_t i = 1; i < gate.fanins.size(); ++i) {
          const std::uint32_t dst = fresh_slot();
          tape_.push_back(TapeOp{
              op, dst, acc,
              static_cast<std::uint32_t>(signal_slot_[gate.fanins[i]])});
          acc = dst;
        }
        if (invert) {
          const std::uint32_t dst = fresh_slot();
          tape_.push_back(TapeOp{OpCode::kNot, dst, acc, 0});
          acc = dst;
        }
        signal_slot_[s] = static_cast<std::int32_t>(acc);
        break;
      }
    }
  }

  for (std::size_t i = 0; i < circuit.inputs().size(); ++i) {
    input_slot_[i] = signal_slot_[circuit.inputs()[i]];
  }
  for (const circuit::OutputConstraint& out : circuit.outputs()) {
    HTS_CHECK_MSG(signal_slot_[out.signal] != kNoSlot,
                  "output signal missing from compiled cone");
    outputs_.push_back(Output{static_cast<std::uint32_t>(signal_slot_[out.signal]),
                              out.target ? 1.0f : 0.0f});
  }

  if (options.optimize) optimize();
  plan_ = util::build_level_plan(tape_, n_slots_, op_is_binary);

  // Self-check hook: prove the finished tape + plan well-formed when plan
  // verification is on (Debug default; HTS_VERIFY_PLANS overrides).  A
  // violation is a compiler/optimizer bug, not an input error — abort with
  // the structured report.
  if (verify::plans_verified()) {
    const verify::Report report = verify::verify_exec_plan(*this);
    HTS_CHECK_MSG(report.ok(), report.to_string().c_str());
  }
}

// Post-compile tape optimization.  Every rewrite here is *exactly* value
// preserving: folds replicate the kernels' float expressions verbatim, and
// only folds whose result is bit-identical for activations in [0, 1] are
// applied (all tape values are probabilities, so e.g. x * 0 == +0 holds).
// See compiled.hpp for the pass list.
void CompiledCircuit::optimize() {
  opt_stats_.ops_before = tape_.size();
  opt_stats_.slots_before = n_slots_;

  // ---- copy propagation + exact constant folding (one forward walk) ----
  std::vector<std::uint32_t> alias(n_slots_);
  std::iota(alias.begin(), alias.end(), 0u);
  std::vector<std::uint8_t> is_const(n_slots_, 0);
  std::vector<float> const_val(n_slots_, 0.0f);
  for (const ConstSlot& c : const_slots_) {
    is_const[c.slot] = 1;
    const_val[c.slot] = c.value;
  }
  // Aliases always point at earlier, already-resolved slots, so one hop
  // suffices — but folded chains can stack, hence the loop.
  auto resolve = [&alias](std::uint32_t s) {
    while (alias[s] != s) s = alias[s];
    return s;
  };

  std::vector<TapeOp> ops;
  ops.reserve(tape_.size());
  for (const TapeOp& raw : tape_) {
    TapeOp op = raw;
    op.a = resolve(op.a);
    if (op_is_binary(op.op)) op.b = resolve(op.b);

    auto fold_alias = [&](std::uint32_t src) {
      alias[op.dst] = src;
      ++opt_stats_.consts_folded;
    };
    auto fold_const = [&](float value) {
      is_const[op.dst] = 1;
      const_val[op.dst] = value;
      ++opt_stats_.consts_folded;
    };

    switch (op.op) {
      case OpCode::kCopy:
        alias[op.dst] = op.a;
        ++opt_stats_.copies_propagated;
        continue;
      case OpCode::kNot:
        if (is_const[op.a]) {
          fold_const(1.0f - const_val[op.a]);
          continue;
        }
        break;
      case OpCode::kAnd: {
        if (is_const[op.a] && is_const[op.b]) {
          fold_const(const_val[op.a] * const_val[op.b]);
          continue;
        }
        const bool ca = is_const[op.a];
        if (ca || is_const[op.b]) {
          const float c = ca ? const_val[op.a] : const_val[op.b];
          const std::uint32_t other = ca ? op.b : op.a;
          if (c == 1.0f) {  // x * 1 == x
            fold_alias(other);
            continue;
          }
          if (c == 0.0f) {  // x * 0 == +0 (x is never negative)
            fold_const(0.0f);
            continue;
          }
        }
        break;
      }
      case OpCode::kOr: {
        if (is_const[op.a] && is_const[op.b]) {
          fold_const(const_val[op.a] + const_val[op.b] -
                     const_val[op.a] * const_val[op.b]);
          continue;
        }
        const bool ca = is_const[op.a];
        if (ca || is_const[op.b]) {
          const float c = ca ? const_val[op.a] : const_val[op.b];
          const std::uint32_t other = ca ? op.b : op.a;
          if (c == 0.0f) {  // x + 0 - x*0 == x
            fold_alias(other);
            continue;
          }
          // OR with 1 is constant 1 mathematically, but (x + 1) - x*1 can
          // round below 1 for tiny x; keep the op for exactness.
        }
        break;
      }
      case OpCode::kXor: {
        if (is_const[op.a] && is_const[op.b]) {
          fold_const(const_val[op.a] + const_val[op.b] -
                     2.0f * const_val[op.a] * const_val[op.b]);
          continue;
        }
        const bool ca = is_const[op.a];
        if (ca || is_const[op.b]) {
          const float c = ca ? const_val[op.a] : const_val[op.b];
          const std::uint32_t other = ca ? op.b : op.a;
          if (c == 0.0f) {  // x + 0 - 2*x*0 == x
            fold_alias(other);
            continue;
          }
          // XOR with 1 is NOT(x) mathematically, but (x + 1) - 2x rounds
          // differently from 1 - x; keep the op for exactness.
        }
        break;
      }
      case OpCode::kAndNot:
      case OpCode::kOrNot:
      case OpCode::kXnor:
        break;  // fused forms never exist pre-optimization
    }
    ops.push_back(op);
  }

  // ---- common-subexpression elimination (local value numbering) ----
  // Identical (op, a, b) triples compute bit-identical values, so later
  // duplicates alias the first occurrence.  Commutative operand pairs are
  // canonicalized (sorted) first: a*b and b*a round identically, as do the
  // OR/XOR polynomials, so swapped-operand duplicates collapse too.  Ops are
  // topologically ordered and operands re-resolved through the alias map,
  // hence one forward walk also catches chains of duplicates (two identical
  // ANDs make their downstream NOTs identical, and so on).
  {
    std::vector<TapeOp> deduped;
    deduped.reserve(ops.size());
    // One map per opcode; the key packs both (already-resolved) operands.
    std::array<std::unordered_map<std::uint64_t, std::uint32_t>, 8> seen;
    for (TapeOp op : ops) {
      op.a = resolve(op.a);
      if (op_is_binary(op.op)) {
        op.b = resolve(op.b);
        if (op_is_commutative(op.op) && op.a > op.b) std::swap(op.a, op.b);
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(op.a) << 32) | op.b;
      auto [it, fresh] =
          seen[static_cast<std::size_t>(op.op)].try_emplace(key, op.dst);
      if (!fresh) {
        alias[op.dst] = it->second;
        ++opt_stats_.cse_eliminated;
        continue;
      }
      deduped.push_back(op);
    }
    ops = std::move(deduped);
  }

  // Re-anchor outputs through the alias map before use/liveness analysis.
  for (Output& out : outputs_) out.slot = resolve(out.slot);

  // ---- NOT fusion: merge single-use kAnd/kOr/kXor + kNot pairs ----
  std::vector<std::int32_t> producer(n_slots_, -1);
  std::vector<std::uint32_t> uses(n_slots_, 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    producer[ops[i].dst] = static_cast<std::int32_t>(i);
    ++uses[ops[i].a];
    if (op_is_binary(ops[i].op)) ++uses[ops[i].b];
  }
  std::vector<std::uint8_t> is_output(n_slots_, 0);
  for (const Output& out : outputs_) is_output[out.slot] = 1;

  std::vector<std::uint8_t> removed(ops.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].op != OpCode::kNot) continue;
    const std::uint32_t src = ops[i].a;
    const std::int32_t p = producer[src];
    if (p < 0 || uses[src] != 1 || is_output[src] != 0) continue;
    TapeOp& prod = ops[static_cast<std::size_t>(p)];
    OpCode fused;
    switch (prod.op) {
      case OpCode::kAnd:
        fused = OpCode::kAndNot;
        break;
      case OpCode::kOr:
        fused = OpCode::kOrNot;
        break;
      case OpCode::kXor:
        fused = OpCode::kXnor;
        break;
      default:
        continue;  // copies, NOTs, and already-fused ops stay as they are
    }
    prod.op = fused;
    prod.dst = ops[i].dst;
    producer[prod.dst] = p;
    producer[src] = -1;
    uses[src] = 0;
    removed[i] = 1;
    ++opt_stats_.nots_fused;
  }

  // ---- dead-code elimination: drop ops that never reach an output ----
  std::vector<std::uint8_t> live(n_slots_, 0);
  for (const Output& out : outputs_) live[out.slot] = 1;
  for (std::size_t i = ops.size(); i-- > 0;) {
    if (removed[i] != 0) continue;
    if (live[ops[i].dst] == 0) {
      removed[i] = 1;
      ++opt_stats_.ops_dead;
      continue;
    }
    live[ops[i].a] = 1;
    if (op_is_binary(ops[i].op)) live[ops[i].b] = 1;
  }

  // ---- liveness renumbering: compact the surviving slots ----
  std::vector<std::uint8_t> defined(n_slots_, 0);
  for (const std::int32_t slot : input_slot_) {
    if (slot != kNoSlot) defined[static_cast<std::size_t>(slot)] = 1;
  }
  for (std::uint32_t s = 0; s < n_slots_; ++s) {
    if (is_const[s] != 0) defined[s] = 1;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (removed[i] == 0) defined[ops[i].dst] = 1;
  }
  std::vector<std::int32_t> remap(n_slots_, kNoSlot);
  std::uint32_t next = 0;
  for (std::uint32_t s = 0; s < n_slots_; ++s) {
    if (defined[s] != 0 && live[s] != 0) remap[s] = static_cast<std::int32_t>(next++);
  }
  auto remapped = [&remap](std::uint32_t s) {
    return static_cast<std::uint32_t>(remap[s]);
  };

  std::vector<TapeOp> new_tape;
  new_tape.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (removed[i] != 0) continue;
    const TapeOp& op = ops[i];
    new_tape.push_back(TapeOp{op.op, remapped(op.dst), remapped(op.a),
                              op_is_binary(op.op) ? remapped(op.b) : 0});
  }
  tape_ = std::move(new_tape);

  std::vector<ConstSlot> new_consts;
  for (std::uint32_t s = 0; s < n_slots_; ++s) {
    if (is_const[s] != 0 && remap[s] != kNoSlot) {
      new_consts.push_back(ConstSlot{remapped(s), const_val[s]});
    }
  }
  const_slots_ = std::move(new_consts);

  for (Output& out : outputs_) out.slot = remapped(out.slot);
  for (std::int32_t& slot : input_slot_) {
    if (slot != kNoSlot) slot = remap[static_cast<std::size_t>(slot)];
  }
  for (std::int32_t& slot : signal_slot_) {
    if (slot != kNoSlot) {
      slot = remap[resolve(static_cast<std::uint32_t>(slot))];
    }
  }

  n_slots_ = next;
  opt_stats_.ops_after = tape_.size();
  opt_stats_.slots_after = n_slots_;
}

}  // namespace hts::prob
