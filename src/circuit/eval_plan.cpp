#include "circuit/eval_plan.hpp"

#include "tensor/simd.hpp"
#include "util/check.hpp"
#include "verify/plan_verifier.hpp"

namespace hts::circuit {

static_assert(EvalPlan::kBlockWords == tensor::simd::kWordLanes,
              "eval_block packs one u64x4 vector per op");

namespace {

/// Base (non-inverted) tree opcode of an n-ary gate, and whether the gate
/// complements its final result.
struct GateLowering {
  WordOp base;
  bool invert;
};

GateLowering lower_gate(GateType type) {
  switch (type) {
    case GateType::kAnd:
      return {WordOp::kAnd, false};
    case GateType::kNand:
      return {WordOp::kAnd, true};
    case GateType::kOr:
      return {WordOp::kOr, false};
    case GateType::kNor:
      return {WordOp::kOr, true};
    case GateType::kXor:
      return {WordOp::kXor, false};
    case GateType::kXnor:
      return {WordOp::kXor, true};
    default:
      return {WordOp::kCopy, false};  // unreachable for n-ary callers
  }
}

WordOp inverted(WordOp base) {
  switch (base) {
    case WordOp::kAnd:
      return WordOp::kNand;
    case WordOp::kOr:
      return WordOp::kNor;
    case WordOp::kXor:
      return WordOp::kXnor;
    default:
      return WordOp::kNot;
  }
}

}  // namespace

EvalPlan::EvalPlan(const Circuit& circuit) {
  n_signals_ = circuit.n_signals();
  n_slots_ = n_signals_;
  input_signal_ = circuit.inputs();
  outputs_ = circuit.outputs();

  // ---- binarize: one 2-input word op per tree node, in topological order
  // (operands always reference existing slots); the shared builder then
  // levelizes them.
  std::vector<util::PlanOp<WordOp>> ops;
  auto emit = [&ops](WordOp o, std::uint32_t d, std::uint32_t x,
                     std::uint32_t y) { ops.push_back({o, d, x, y}); };
  std::vector<std::uint32_t> frontier;
  for (SignalId s = 0; s < circuit.n_signals(); ++s) {
    const Gate& gate = circuit.gate(s);
    switch (gate.type) {
      case GateType::kInput:
        break;
      case GateType::kConst0:
      case GateType::kConst1:
        const_slots_.push_back(
            ConstSlot{s, gate.type == GateType::kConst1 ? ~0ULL : 0ULL});
        break;
      case GateType::kBuf:
        emit(WordOp::kCopy, s, gate.fanins[0], gate.fanins[0]);
        break;
      case GateType::kNot:
        emit(WordOp::kNot, s, gate.fanins[0], gate.fanins[0]);
        break;
      default: {
        const GateLowering lowering = lower_gate(gate.type);
        // Balanced pairwise reduction: bitwise AND/OR/XOR are associative and
        // commutative, so any tree computes eval64's left fold exactly, and
        // the balanced shape keeps the plan ceil(log2 n) levels deep.
        frontier.assign(gate.fanins.begin(), gate.fanins.end());
        if (frontier.size() == 1) {
          // eval_gate folds a 1-fanin NAND/NOR/XNOR to NOT, AND/OR/XOR to
          // the fanin itself.
          emit(lowering.invert ? WordOp::kNot : WordOp::kCopy, s, frontier[0],
               frontier[0]);
          break;
        }
        while (frontier.size() > 2) {
          std::size_t out = 0;
          for (std::size_t i = 0; i + 1 < frontier.size(); i += 2) {
            const auto temp = static_cast<std::uint32_t>(n_slots_++);
            emit(lowering.base, temp, frontier[i], frontier[i + 1]);
            frontier[out++] = temp;
          }
          if (frontier.size() % 2 != 0) frontier[out++] = frontier.back();
          frontier.resize(out);
        }
        emit(lowering.invert ? inverted(lowering.base) : lowering.base, s,
             frontier[0], frontier[1]);
        break;
      }
    }
  }

  // Ops of one level are mutually independent, so the builder's opcode sort
  // inside each level is exact, and the run-length dispatch in eval_block
  // executes one switch per run, not per op.
  plan_ = util::build_level_plan(ops, n_slots_, word_op_is_binary);

  // Self-check hook: every plan this process builds is proven well-formed
  // when plan verification is on (Debug default; HTS_VERIFY_PLANS
  // overrides).  A violation is a compiler bug, not an input error — abort
  // with the structured report.
  if (verify::plans_verified()) {
    const verify::Report report = verify::verify_eval_plan(*this);
    HTS_CHECK_MSG(report.ok(), report.to_string().c_str());
  }
}

void EvalPlan::eval_block(const std::uint64_t* packed, std::size_t n_words,
                          std::size_t w0, std::size_t count,
                          std::uint64_t* slots) const {
  namespace simd = tensor::simd;
  using simd::u64x4;

  for (const ConstSlot& c : const_slots_) {
    simd::store_u64(slots + c.slot * kBlockWords, simd::broadcast_u64(c.value));
  }
  // Unpack: the packed layout keeps a block's words contiguous per input.
  for (std::size_t i = 0; i < input_signal_.size(); ++i) {
    std::uint64_t* row =
        slots + static_cast<std::size_t>(input_signal_[i]) * kBlockWords;
    const std::uint64_t* src = packed + i * n_words + w0;
    for (std::size_t lane = 0; lane < kBlockWords; ++lane) {
      row[lane] = lane < count ? src[lane] : 0;
    }
  }

  // Run-length dispatch: one opcode switch per run, a branch-free inner loop
  // per run body, one u64x4 op per (plan op, block).  Unary plan entries
  // mirror `a` into `b`, so every kernel can take both operands.
  const util::LevelPlan<WordOp>& p = plan_;
  auto run = [&p, slots](std::uint32_t begin, std::uint32_t end,
                         auto&& kernel) {
    for (std::uint32_t i = begin; i < end; ++i) {
      simd::store_u64(slots + p.dst[i] * kBlockWords,
                      kernel(simd::load_u64(slots + p.a[i] * kBlockWords),
                             simd::load_u64(slots + p.b[i] * kBlockWords)));
    }
  };
  for (std::size_t k = 0; k < p.n_runs(); ++k) {
    const std::uint32_t begin = p.run_begin[k];
    const std::uint32_t end = p.run_begin[k + 1];
    switch (p.op[begin]) {
      case WordOp::kCopy:
        run(begin, end, [](u64x4 a, u64x4) { return a; });
        break;
      case WordOp::kNot:
        run(begin, end, [](u64x4 a, u64x4) { return ~a; });
        break;
      case WordOp::kAnd:
        run(begin, end, [](u64x4 a, u64x4 b) { return a & b; });
        break;
      case WordOp::kOr:
        run(begin, end, [](u64x4 a, u64x4 b) { return a | b; });
        break;
      case WordOp::kXor:
        run(begin, end, [](u64x4 a, u64x4 b) { return a ^ b; });
        break;
      case WordOp::kNand:
        run(begin, end, [](u64x4 a, u64x4 b) { return ~(a & b); });
        break;
      case WordOp::kNor:
        run(begin, end, [](u64x4 a, u64x4 b) { return ~(a | b); });
        break;
      case WordOp::kXnor:
        run(begin, end, [](u64x4 a, u64x4 b) { return ~(a ^ b); });
        break;
    }
  }
}

std::uint64_t EvalPlan::satisfied(const std::uint64_t* slots,
                                  std::size_t lane) const {
  std::uint64_t ok = ~0ULL;
  for (const OutputConstraint& out : outputs_) {
    const std::uint64_t word = signal_word(slots, out.signal, lane);
    ok &= out.target ? word : ~word;
  }
  return ok;
}

std::vector<std::uint64_t> EvalPlan::eval64(
    const std::vector<std::uint64_t>& input_words) const {
  HTS_CHECK(input_words.size() == input_signal_.size());
  // One lane of one block; `packed` with n_words == 1 is exactly the
  // per-input word vector.
  std::vector<std::uint64_t> slots(scratch_words(), 0);
  eval_block(input_words.data(), 1, 0, 1, slots.data());
  std::vector<std::uint64_t> values(n_signals_);
  for (SignalId s = 0; s < n_signals_; ++s) {
    values[s] = signal_word(slots.data(), s, 0);
  }
  return values;
}

}  // namespace hts::circuit
