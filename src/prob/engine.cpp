#include "prob/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

namespace hts::prob {

// V is tiled: the batch is cut into tiles of kTileRows rows, and each tile
// stores all of its inputs contiguously ([tile][input][row-in-tile]).  A GD
// iteration touches one tile at a time: embed, forward, backward and update
// all run inside one part's scratch (activations then gradients,
// [slot][row-in-tile] each), so the working set per thread is
// slots * kTileRows * 4 bytes * 2 — cache resident for typical circuits —
// and the scratch is reused by the part's next tile.  Reuse is sound
// because the plan is SSA with def-before-use (the plan verifier proves
// both): every slot a tile reads was written earlier in that tile's own
// pass, except the constant slots, which no op writes and which are filled
// once per part.  kTileRows == 64 also makes hardening emit exactly one
// machine word per (input, tile).
//
// Kernels process a tile as kTileRows / 8 width-8 SIMD vectors (see
// tensor/simd.hpp).  Per lane every kernel performs the same float
// operations in the same order as the scalar reference expressions from
// Table I, so vectorization changes no results; the only approximation in
// the engine is the optional fast sigmoid, which Config::fast_sigmoid
// switches off.  The library builds with -ffp-contract=off so fused ops
// (kAndNot = 1 - a*b, ...) round exactly like their two-op expansions.
//
// Every policy executes the identical per-tile float sequence (forward in
// plan order, backward in reverse plan order), so *all* results — forward
// activations, loss, gradients, and V after descent — are bit-identical
// across policies and thread counts.
//
// Kernel dispatch is run-batched: the plan clusters same-opcode ops into
// runs (ExecPlan::run_begin), and a sweep switches on the opcode once per
// run, then streams the run body through a tight per-opcode inner loop —
// the branch predictor sees one stable target instead of a per-op switch.

namespace {

constexpr std::size_t kTileRows = prob::Engine::kTileRows;

using tensor::simd::broadcast;
using tensor::simd::f32x8;
using tensor::simd::load;
using tensor::simd::store;

constexpr std::size_t kStep = tensor::simd::kWidth;
static_assert(kTileRows % kStep == 0);

/// Streams plan ops [begin, end) — all sharing one opcode — through a
/// forward kernel expression.  The kernel sees one (a, b) vector pair and
/// returns the destination vector; its float sequence must match the scalar
/// Table I reference exactly (the library builds -ffp-contract=off, so the
/// lambdas round like the historical per-op kernels).
template <typename Kernel>
inline void forward_loop(const ExecPlan& plan, std::uint32_t begin,
                         std::uint32_t end, float* act, Kernel&& kernel) {
  for (std::uint32_t i = begin; i < end; ++i) {
    float* dst = act + static_cast<std::size_t>(plan.dst[i]) * kTileRows;
    const float* a = act + static_cast<std::size_t>(plan.a[i]) * kTileRows;
    const float* b = act + static_cast<std::size_t>(plan.b[i]) * kTileRows;
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      store(dst + x, kernel(load(a + x), load(b + x)));
    }
  }
}

/// Forward kernels for one same-opcode run over one tile (Table I
/// relaxations): one switch per run, not per op.
inline void forward_run(OpCode code, const ExecPlan& plan, std::uint32_t begin,
                        std::uint32_t end, float* act) {
  const f32x8 one = broadcast(1.0f);
  const f32x8 two = broadcast(2.0f);
  switch (code) {
    case OpCode::kCopy:
      forward_loop(plan, begin, end, act, [](f32x8 a, f32x8) { return a; });
      break;
    case OpCode::kNot:
      forward_loop(plan, begin, end, act,
                   [one](f32x8 a, f32x8) { return one - a; });
      break;
    case OpCode::kAnd:
      forward_loop(plan, begin, end, act,
                   [](f32x8 a, f32x8 b) { return a * b; });
      break;
    case OpCode::kOr:
      forward_loop(plan, begin, end, act,
                   [](f32x8 a, f32x8 b) { return a + b - a * b; });
      break;
    case OpCode::kXor:
      forward_loop(plan, begin, end, act,
                   [two](f32x8 a, f32x8 b) { return a + b - two * a * b; });
      break;
    case OpCode::kAndNot:
      forward_loop(plan, begin, end, act,
                   [one](f32x8 a, f32x8 b) { return one - a * b; });
      break;
    case OpCode::kOrNot:
      forward_loop(plan, begin, end, act,
                   [one](f32x8 a, f32x8 b) { return one - (a + b - a * b); });
      break;
    case OpCode::kXnor:
      forward_loop(
          plan, begin, end, act,
          [one, two](f32x8 a, f32x8 b) { return one - (a + b - two * a * b); });
      break;
  }
}

/// Reverse-streams plan ops (begin, end] backward for the unary opcodes,
/// which accumulate only into the single operand's gradient.
template <typename Kernel>
inline void backward_unary_loop(const ExecPlan& plan, std::uint32_t begin,
                                std::uint32_t end, float* grad,
                                Kernel&& kernel) {
  for (std::uint32_t i = end; i-- > begin;) {
    const float* gy = grad + static_cast<std::size_t>(plan.dst[i]) * kTileRows;
    float* ga = grad + static_cast<std::size_t>(plan.a[i]) * kTileRows;
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      store(ga + x, kernel(load(ga + x), load(gy + x)));
    }
  }
}

/// Reverse-streams a binary run backward.  `da`/`db` produce the partial
/// derivatives from the operand activations; Negate folds a fused op's
/// trailing NOT into the upstream gradient.  Per vector chunk the `a`
/// gradient is stored before the `b` gradient is loaded, preserving the
/// historical sequence when an op reads the same slot twice.
template <bool Negate, typename Da, typename Db>
inline void backward_binary_loop(const ExecPlan& plan, std::uint32_t begin,
                                 std::uint32_t end, const float* act,
                                 float* grad, Da&& da, Db&& db) {
  for (std::uint32_t i = end; i-- > begin;) {
    const float* gy = grad + static_cast<std::size_t>(plan.dst[i]) * kTileRows;
    float* ga = grad + static_cast<std::size_t>(plan.a[i]) * kTileRows;
    float* gb = grad + static_cast<std::size_t>(plan.b[i]) * kTileRows;
    const float* a = act + static_cast<std::size_t>(plan.a[i]) * kTileRows;
    const float* bv = act + static_cast<std::size_t>(plan.b[i]) * kTileRows;
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      const f32x8 g = Negate ? -load(gy + x) : load(gy + x);
      store(ga + x, load(ga + x) + g * da(load(bv + x)));
      store(gb + x, load(gb + x) + g * db(load(a + x)));
    }
  }
}

/// Backward kernels for one same-opcode run (Table I derivatives; fused ops
/// negate the upstream gradient exactly as their trailing NOT would have).
/// Ops within the run unwind in reverse plan order.
inline void backward_run(OpCode code, const ExecPlan& plan, std::uint32_t begin,
                         std::uint32_t end, const float* act, float* grad) {
  const f32x8 one = broadcast(1.0f);
  const f32x8 two = broadcast(2.0f);
  const auto ident = [](f32x8 v) { return v; };
  const auto complement = [one](f32x8 v) { return one - v; };
  const auto xor_term = [one, two](f32x8 v) { return one - two * v; };
  switch (code) {
    case OpCode::kCopy:
      backward_unary_loop(plan, begin, end, grad,
                          [](f32x8 ga, f32x8 gy) { return ga + gy; });
      break;
    case OpCode::kNot:
      backward_unary_loop(plan, begin, end, grad,
                          [](f32x8 ga, f32x8 gy) { return ga - gy; });
      break;
    case OpCode::kAnd:
      backward_binary_loop<false>(plan, begin, end, act, grad, ident, ident);
      break;
    case OpCode::kOr:
      backward_binary_loop<false>(plan, begin, end, act, grad, complement,
                                  complement);
      break;
    case OpCode::kXor:
      backward_binary_loop<false>(plan, begin, end, act, grad, xor_term,
                                  xor_term);
      break;
    case OpCode::kAndNot:
      backward_binary_loop<true>(plan, begin, end, act, grad, ident, ident);
      break;
    case OpCode::kOrNot:
      backward_binary_loop<true>(plan, begin, end, act, grad, complement,
                                 complement);
      break;
    case OpCode::kXnor:
      backward_binary_loop<true>(plan, begin, end, act, grad, xor_term,
                                 xor_term);
      break;
  }
}

/// Sets FTZ|DAZ in this thread's MXCSR for the guard's lifetime and then
/// restores the saved mode, so only the sweep computes with denormals
/// flushed (see engine.hpp).  Without SSE it does nothing.
#if defined(__SSE__)
class FlushDenormals {
 public:
  FlushDenormals() : saved_(_mm_getcsr()) { _mm_setcsr(saved_ | kFtzDaz); }
  ~FlushDenormals() { _mm_setcsr(saved_); }
  FlushDenormals(const FlushDenormals&) = delete;
  FlushDenormals& operator=(const FlushDenormals&) = delete;

 private:
  static constexpr unsigned kFtzDaz = 0x8040;
  unsigned saved_;
};
#else
struct FlushDenormals {};
#endif

/// Forward pass of one tile: every run of the plan, in plan order.
inline void forward_tile(const ExecPlan& plan, float* act) {
  const auto& rb = plan.run_begin;
  for (std::size_t k = 0; k < plan.n_runs(); ++k) {
    forward_run(plan.op[rb[k]], plan, rb[k], rb[k + 1], act);
  }
}

/// Backward pass of one tile: runs in reverse plan order, each unwinding
/// its ops in reverse, so every slot accumulates its gradient contributions
/// in the one order the plan fixes.
inline void backward_tile(const ExecPlan& plan, const float* act,
                          float* grad) {
  const auto& rb = plan.run_begin;
  for (std::size_t k = plan.n_runs(); k-- > 0;) {
    backward_run(plan.op[rb[k]], plan, rb[k], rb[k + 1], act, grad);
  }
}

}  // namespace

Engine::Engine(const CompiledCircuit& compiled, Config config)
    : compiled_(&compiled), config_(config) {
  HTS_CHECK(config_.batch > 0);
  n_tiles_ = (config_.batch + kTileRows - 1) / kTileRows;
  const std::size_t padded = n_tiles_ * kTileRows;
  if (config_.policy == tensor::Policy::kDataParallel) {
    n_parts_ = std::min(n_tiles_, util::ThreadPool::global().size());
  }
  const std::size_t part_floats = 2 * compiled_->n_slots() * kTileRows;
  v_.resize(compiled_->n_circuit_inputs() * padded);
  scratch_.resize(n_parts_ * part_floats);
  output_act_.resize(compiled_->outputs().size() * padded);
  row_loss_.resize(padded);
  tile_loss_.assign(n_tiles_, 0.0);
  // Resolve bias terms once: in-cone inputs become slot terms, cone-free
  // inputs become direct V-side terms.  Zero-weight and out-of-range
  // entries drop here, so the hot loops below never re-test them.
  for (const Config::InputBias& bias : config_.input_biases) {
    if (bias.weight == 0.0f || bias.input >= compiled_->n_circuit_inputs()) {
      continue;
    }
    const std::int32_t slot = compiled_->input_slot()[bias.input];
    if (slot == kNoSlot) {
      free_biases_.push_back({bias.input, bias.target, bias.weight});
    } else {
      slot_biases_.push_back(
          {static_cast<std::uint32_t>(slot), bias.target, bias.weight});
    }
  }
  // Constant slots are never written by an op: fill once per part.
  for (std::size_t p = 0; p < n_parts_; ++p) {
    float* act = scratch_.data() + p * part_floats;
    for (const CompiledCircuit::ConstSlot& c : compiled_->const_slots()) {
      float* row = act + static_cast<std::size_t>(c.slot) * kTileRows;
      std::fill(row, row + kTileRows, c.value);
    }
  }
}

std::size_t Engine::v_index(std::size_t input, std::size_t row) const {
  const std::size_t tile = row / kTileRows;
  return (tile * compiled_->n_circuit_inputs() + input) * kTileRows +
         (row % kTileRows);
}

util::ThreadPool* Engine::fill_pool() const {
  return n_parts_ > 1 ? &util::ThreadPool::global() : nullptr;
}

void Engine::randomize(util::Rng& rng) {
  rng.fill_gaussian(
      v_.size(), config_.init_std,
      [this](std::size_t k) {
        return [slot = v_.data() + k]() mutable -> float& { return *slot++; };
      },
      fill_pool());
}

std::size_t Engine::rerandomize_rows(const std::vector<std::uint64_t>& mask,
                                     util::Rng& rng) {
  const std::size_t n_inputs = compiled_->n_circuit_inputs();
  // Each listed row's input-0 offset in V, in tile then row order; draw k
  // goes to input k % n_inputs of row k / n_inputs.
  std::vector<std::size_t> rows;
  const std::size_t words = std::min(mask.size(), n_tiles_);
  for (std::size_t t = 0; t < words; ++t) {
    for (std::uint64_t bits = mask[t]; bits != 0; bits &= bits - 1) {
      rows.push_back(t * n_inputs * kTileRows +
                     static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  rng.fill_gaussian(
      rows.size() * n_inputs, config_.init_std,
      [&](std::size_t k) {
        return [v = v_.data(), row = rows.data() + k / n_inputs,
                i = k % n_inputs, n_inputs]() mutable -> float& {
          float& slot = v[*row + i * kTileRows];
          if (++i == n_inputs) {
            i = 0;
            ++row;
          }
          return slot;
        };
      },
      fill_pool());
  return rows.size();
}

void Engine::pin_row_inputs(std::size_t row,
                            const std::vector<std::uint32_t>& slots,
                            const std::uint64_t* bits) {
  // 3 sigma clears essentially every Gaussian re-seed draw, so the hardened
  // row starts exactly on the requested pattern while staying well inside
  // the sigmoid's responsive range (descent keeps its vote).
  const float pin = 3.0f * config_.init_std;
  const std::size_t n_inputs = compiled_->n_circuit_inputs();
  const std::size_t t = row / kTileRows;
  const std::size_t r = row % kTileRows;
  if (t >= n_tiles_) return;
  float* v = v_.data() + t * n_inputs * kTileRows + r;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const std::uint32_t slot = slots[k];
    if (slot == kNoPinSlot || slot >= n_inputs) continue;
    const bool one = ((bits[k >> 6] >> (k & 63)) & 1ULL) != 0;
    v[static_cast<std::size_t>(slot) * kTileRows] = one ? pin : -pin;
  }
}

void Engine::sigmoid_row(const float* v_row, float* out) const {
  if (config_.fast_sigmoid) {
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      store(out + x, tensor::simd::fast_sigmoid(load(v_row + x)));
    }
  } else {
    for (std::size_t r = 0; r < kTileRows; ++r) {
      out[r] = 1.0f / (1.0f + std::exp(-v_row[r]));
    }
  }
}

void Engine::embed_tile(std::size_t tile, float* act) const {
  const std::size_t n_inputs = compiled_->n_circuit_inputs();
  const float* v = v_.data() + tile * n_inputs * kTileRows;
  const auto& input_slots = compiled_->input_slot();
  for (std::size_t i = 0; i < n_inputs; ++i) {
    if (input_slots[i] == kNoSlot) continue;
    sigmoid_row(v + i * kTileRows,
                act + static_cast<std::size_t>(input_slots[i]) * kTileRows);
  }
}

double Engine::tile_loss(std::size_t tile, const float* act) const {
  // Rows past the batch in the final tile are computed but never harvested
  // and excluded from the loss.
  const std::size_t rows =
      std::min(kTileRows, config_.batch - tile * kTileRows);
  double local_loss = 0.0;
  for (const CompiledCircuit::Output& out : compiled_->outputs()) {
    const float* y = act + static_cast<std::size_t>(out.slot) * kTileRows;
    for (std::size_t r = 0; r < rows; ++r) {
      const double diff = static_cast<double>(y[r]) - out.target;
      local_loss += diff * diff;
    }
  }
  // Bias terms, in a fixed order (slot terms then free terms) so the float
  // sum is policy-independent; no-op when input_biases is empty.
  for (const SlotBias& bias : slot_biases_) {
    const float* y = act + static_cast<std::size_t>(bias.slot) * kTileRows;
    for (std::size_t r = 0; r < rows; ++r) {
      const double diff = static_cast<double>(y[r]) - bias.target;
      local_loss += bias.weight * diff * diff;
    }
  }
  if (!free_biases_.empty()) {
    const float* v =
        v_.data() + tile * compiled_->n_circuit_inputs() * kTileRows;
    float p[kTileRows];
    for (const FreeBias& bias : free_biases_) {
      sigmoid_row(v + bias.input * kTileRows, p);
      for (std::size_t r = 0; r < rows; ++r) {
        const double diff = static_cast<double>(p[r]) - bias.target;
        local_loss += bias.weight * diff * diff;
      }
    }
  }
  return local_loss;
}

void Engine::capture_tile(std::size_t tile, const float* act) {
  const auto& outputs = compiled_->outputs();
  float* y_out = output_act_.data() + tile * outputs.size() * kTileRows;
  float* o = row_loss_.data() + tile * kTileRows;
  std::fill(o, o + kTileRows, 0.0f);
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const float* y = act + static_cast<std::size_t>(outputs[k].slot) * kTileRows;
    std::copy(y, y + kTileRows, y_out + k * kTileRows);
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const float diff = y[r] - outputs[k].target;
      o[r] += diff * diff;
    }
  }
  for (const SlotBias& bias : slot_biases_) {
    const float* y = act + static_cast<std::size_t>(bias.slot) * kTileRows;
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const float diff = y[r] - bias.target;
      o[r] += bias.weight * diff * diff;
    }
  }
}

void Engine::seed_gradients(const float* act, float* grad) const {
  const f32x8 two = broadcast(2.0f);
  // Zero the tile's gradients, then seed dL/dy = 2 (y - t).
  std::fill(grad, grad + compiled_->n_slots() * kTileRows, 0.0f);
  for (const CompiledCircuit::Output& out : compiled_->outputs()) {
    const float* y = act + static_cast<std::size_t>(out.slot) * kTileRows;
    float* g_row = grad + static_cast<std::size_t>(out.slot) * kTileRows;
    const f32x8 target = broadcast(out.target);
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      store(g_row + x, load(g_row + x) + two * (load(y + x) - target));
    }
  }
  // Slot-bias terms seed like extra outputs (dL/dp = 2 w (p - t)); inputs
  // are never op destinations, so backward only accumulates on top and the
  // regular update chains the sigmoid.  Free biases have no slot and are
  // handled in update_tile.
  for (const SlotBias& bias : slot_biases_) {
    const float* y = act + static_cast<std::size_t>(bias.slot) * kTileRows;
    float* g_row = grad + static_cast<std::size_t>(bias.slot) * kTileRows;
    const f32x8 target = broadcast(bias.target);
    const f32x8 w2 = broadcast(2.0f * bias.weight);
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      store(g_row + x, load(g_row + x) + w2 * (load(y + x) - target));
    }
  }
}

void Engine::update_tile(std::size_t tile, const float* act,
                         const float* grad) {
  const std::size_t n_inputs = compiled_->n_circuit_inputs();
  float* v = v_.data() + tile * n_inputs * kTileRows;
  const auto& input_slots = compiled_->input_slot();
  const f32x8 one = broadcast(1.0f);
  const f32x8 lr = broadcast(config_.learning_rate);
  // Chain through the sigmoid embedding and take the GD step (Eq. 10).
  for (std::size_t i = 0; i < n_inputs; ++i) {
    if (input_slots[i] == kNoSlot) continue;
    const float* p = act + static_cast<std::size_t>(input_slots[i]) * kTileRows;
    const float* gp =
        grad + static_cast<std::size_t>(input_slots[i]) * kTileRows;
    float* v_row = v + i * kTileRows;
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      const f32x8 pv = load(p + x);
      const f32x8 gv = load(gp + x) * pv * (one - pv);
      store(v_row + x, load(v_row + x) - lr * gv);
    }
  }
  // Free-bias descent: inputs with no compiled slot never see circuit
  // gradient, so their bias term steps V directly.  p = sigmoid(v) is
  // recomputed with the embed sigmoid (v is still pre-update here — the
  // main loop above skipped these inputs).
  for (const FreeBias& bias : free_biases_) {
    float* v_row = v + static_cast<std::size_t>(bias.input) * kTileRows;
    float p[kTileRows];
    sigmoid_row(v_row, p);
    const f32x8 target = broadcast(bias.target);
    const f32x8 w2 = broadcast(2.0f * bias.weight);
    for (std::size_t x = 0; x < kTileRows; x += kStep) {
      const f32x8 pv = load(p + x);
      const f32x8 gv = w2 * (pv - target) * pv * (one - pv);
      store(v_row + x, load(v_row + x) - lr * gv);
    }
  }
}

void Engine::process_tile(std::size_t tile, float* act, float* grad,
                          bool with_grad, bool want_loss) {
  const ExecPlan& plan = compiled_->plan();
  embed_tile(tile, act);
  forward_tile(plan, act);
  capture_tile(tile, act);
  if (want_loss) tile_loss_[tile] = tile_loss(tile, act);
  if (!with_grad) return;

  seed_gradients(act, grad);
  backward_tile(plan, act, grad);
  update_tile(tile, act, grad);
}

void Engine::sweep(bool with_grad) {
  const bool want_loss = config_.compute_loss || !with_grad;
  const std::size_t part_floats = 2 * compiled_->n_slots() * kTileRows;
  auto run_parts = [&](std::size_t begin, std::size_t end) {
    [[maybe_unused]] FlushDenormals flush;
    for (std::size_t p = begin; p < end; ++p) {
      float* act = scratch_.data() + p * part_floats;
      float* grad = act + part_floats / 2;
      const std::size_t tile_end = n_tiles_ * (p + 1) / n_parts_;
      for (std::size_t t = n_tiles_ * p / n_parts_; t < tile_end; ++t) {
        process_tile(t, act, grad, with_grad, want_loss);
      }
    }
  };
  if (n_parts_ == 1) {
    run_parts(0, 1);
  } else {
    util::ThreadPool::global().parallel_for(n_parts_, run_parts);
  }
  if (want_loss) {
    // Reduced in tile order, so the sum is policy-independent.
    double total_loss = 0.0;
    for (const double tile_loss : tile_loss_) total_loss += tile_loss;
    last_loss_ = total_loss;
  }
}

void Engine::run_iteration() { sweep(/*with_grad=*/true); }

void Engine::forward_only() { sweep(/*with_grad=*/false); }

void Engine::harden(std::vector<std::uint64_t>& packed_out) const {
  const std::size_t n = compiled_->n_circuit_inputs();
  packed_out.assign(n * n_tiles_, 0);
  for (std::size_t t = 0; t < n_tiles_; ++t) {
    const float* v = v_.data() + t * n * kTileRows;
    // Padding rows (>= batch) never escape into the packed words.
    const std::size_t rows = std::min(kTileRows, config_.batch - t * kTileRows);
    const std::uint64_t row_mask =
        rows < 64 ? (1ULL << rows) - 1 : ~0ULL;
    for (std::size_t i = 0; i < n; ++i) {
      const float* v_row = v + i * kTileRows;
      // Width-8 compare + movemask packing; the per-lane predicate is the
      // scalar `v > 0` exactly (NaN and ±0 contribute 0 bits).
      std::uint64_t word = 0;
      for (std::size_t x = 0; x < kTileRows; x += kStep) {
        word |= static_cast<std::uint64_t>(
                    tensor::simd::movemask_gt_zero(load(v_row + x)))
                << x;
      }
      packed_out[i * n_tiles_ + t] = word & row_mask;
    }
  }
}

void Engine::row_losses(std::vector<float>& out) const {
  out.assign(row_loss_.data(), row_loss_.data() + config_.batch);
  if (free_biases_.empty()) return;
  const std::size_t n_inputs = compiled_->n_circuit_inputs();
  float p[kTileRows];
  for (std::size_t t = 0; t < n_tiles_; ++t) {
    const float* v = v_.data() + t * n_inputs * kTileRows;
    const std::size_t rows = std::min(kTileRows, config_.batch - t * kTileRows);
    float* o = out.data() + t * kTileRows;
    for (const FreeBias& bias : free_biases_) {
      sigmoid_row(v + bias.input * kTileRows, p);
      for (std::size_t r = 0; r < rows; ++r) {
        const float diff = p[r] - bias.target;
        o[r] += bias.weight * diff * diff;
      }
    }
  }
}

float Engine::activation(std::uint32_t slot, std::size_t row) const {
  const auto& outputs = compiled_->outputs();
  const auto it = std::find_if(
      outputs.begin(), outputs.end(),
      [slot](const CompiledCircuit::Output& out) { return out.slot == slot; });
  HTS_CHECK(it != outputs.end());
  const auto k = static_cast<std::size_t>(it - outputs.begin());
  return output_act_[((row / kTileRows) * outputs.size() + k) * kTileRows +
                     row % kTileRows];
}

float Engine::v_value(std::size_t input, std::size_t row) const {
  return v_[v_index(input, row)];
}

void Engine::set_v(std::size_t input, std::size_t row, float value) {
  v_[v_index(input, row)] = value;
}

std::size_t Engine::memory_bytes() const {
  return (v_.size() + scratch_.size() + output_act_.size() + row_loss_.size()) *
             sizeof(float) +
         tile_loss_.size() * sizeof(double);
}

std::size_t Engine::predicted_bytes(const CompiledCircuit& compiled,
                                    std::size_t batch) {
  const std::size_t padded =
      (batch + kTileRows - 1) / kTileRows * kTileRows;
  // V + V.grad (inputs) and batch-sized activations + gradients (slots).
  return (2 * compiled.n_circuit_inputs() + 2 * compiled.n_slots()) * padded *
         sizeof(float);
}

}  // namespace hts::prob
