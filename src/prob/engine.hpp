#pragma once

// Batched gradient-descent engine over a compiled probabilistic circuit.
//
// Implements the paper's learning loop: soft inputs V in R^{b x n} embedded
// through a sigmoid (Eq. 6), the probabilistic forward pass (Eq. 7), the L2
// loss against the output targets (Eq. 8), analytic backward per Table I,
// and the plain GD update (Eq. 10).  Each batch row is an independent
// learning problem; one iteration is a single data-parallel dispatch, so
// the serial-vs-parallel policy comparison isolates the "GPU" speedup.
//
// The inner loops run on the width-8 SIMD kernels of tensor/simd.hpp: a
// tile's 64 rows are processed as 8 vectors per tape op.  The embed step
// uses simd::fast_sigmoid by default (see its documented error bound);
// Config::fast_sigmoid = false selects the exact std::exp path for A/B
// parity runs.
//
// Sweeps compute with denormals flushed: each part runs its tiles with
// FTZ|DAZ set in MXCSR and restores the thread's mode afterwards, so
// nothing outside the sweep (the transform, the harvester, callers) ever
// runs in that mode.  On deep circuits the backward pass multiplies many
// small partials, the gradients underflow, and x86 computes denormals on a
// slow microcode path.  Flushing cannot move V: a denormal gradient g
// makes an update lr * g * p * (1 - p) far below half an ulp of any |V|
// above about 1e-30 (Gaussian draws and pins never come near that), and
// flushing a denormal activation to zero changes the partials downstream
// of it only by denormal amounts.  Row losses square (y - t) in float,
// where a denormal y squares to zero either way; only last_loss(), summed
// in double, can lose terms near 1e-76.  The goldens, and a test whose AND
// chain runs its gradients through the denormal range, hold V
// bit-identical to an engine without the flush.
//
// Every policy executes the compiled ExecPlan in plan order (forward) and
// reverse plan order (backward) through opcode-run-batched kernels: the
// plan clusters same-opcode ops into runs, and kernels dispatch once per
// run with a tight per-opcode inner loop instead of a per-op switch.
// Because the op order and accumulation order are fixed by the plan, all
// results — activations, loss, and V after descent — are bit-identical
// across policies and thread counts.
//
// Memory is tile-resident: V is the only buffer that scales with batch x
// circuit size.  A 64-row tile's activations and gradients are dead once
// its update is done, so they live in per-part scratch (2 * n_slots * 64
// floats per part) that each part reuses tile after tile.  Per row the
// engine keeps only what outlives the sweep: the output activations and
// the per-row loss.
//
// Scheduling (Config::policy):
//   kSerial        one part: the calling thread walks every tile and draws
//                  every V value,
//   kDataParallel  min(tiles, pool size) parts, each walking one contiguous
//                  tile range on the thread pool (batch/64-way parallel);
//                  with more than one part, V draws run on the pool too.

#include <cstdint>
#include <vector>

#include "prob/compiled.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace hts::prob {

class Engine {
 public:
  /// Rows per storage tile; also the word width of harden().
  static constexpr std::size_t kTileRows = 64;

  struct Config {
    std::size_t batch = 1024;
    float learning_rate = 10.0f;  // the paper's setting
    float init_std = 2.0f;        // stddev of the Gaussian V initialization
    tensor::Policy policy = tensor::Policy::kDataParallel;
    bool compute_loss = false;  // accumulate L2 loss during iterations
    /// Embed with the vectorized polynomial sigmoid (default) or the exact
    /// std::exp one (bit-identical to the pre-SIMD engine; used for A/B).
    bool fast_sigmoid = true;
    /// An extra per-row loss term weight * (p_input - target)^2 steering a
    /// circuit input toward 0 or 1 (literal-weight requests).  Inputs inside
    /// the compiled cone seed extra output-style gradient and chain through
    /// the normal backward/update; inputs *outside* the cone (free
    /// variables, no compiled slot) take a direct V-side descent step — the
    /// only force that ever moves them, since plain descent never touches
    /// unconstrained inputs.  Empty (default) adds zero float ops, so the
    /// unweighted engine is bit-identical to before; every term is applied
    /// per tile, so all scheduling policies stay bit-identical to each
    /// other.  Entries with weight 0 or an out-of-range input are dropped.
    struct InputBias {
      std::uint32_t input = 0;
      float target = 1.0f;
      float weight = 1.0f;
    };
    std::vector<InputBias> input_biases;
  };

  Engine(const CompiledCircuit& compiled, Config config);

  [[nodiscard]] std::size_t batch() const { return config_.batch; }
  [[nodiscard]] std::size_t n_inputs() const { return compiled_->n_circuit_inputs(); }

  /// Inputs carrying an active bias term after resolution (in-cone plus
  /// free); accounting for GdLoopExtras::weighted_inputs.
  [[nodiscard]] std::size_t n_weighted_inputs() const {
    return slot_biases_.size() + free_biases_.size();
  }

  /// Draws fresh V ~ N(0, init_std^2) for every input and row, in V's
  /// storage order.  A multi-part engine replays the draws on the pool
  /// (util::Rng::fill_gaussian), so V and the state left in `rng` are the
  /// same bits under any policy and pool size.
  void randomize(util::Rng& rng);

  /// Redraws V (every input) for each row whose bit is set in `mask`
  /// (same word layout as harden(): bit r of word t is row 64t + r).
  /// Powers solved-row restarts: rows that already satisfied are re-seeded
  /// instead of re-descending a converged basin.  Returns the number of
  /// rows redrawn.  Deterministic draw order: tile, then row, then input,
  /// under any policy and pool size, as for randomize().
  std::size_t rerandomize_rows(const std::vector<std::uint64_t>& mask,
                               util::Rng& rng);

  /// Sentinel for pin_row_inputs: positions mapped to it are skipped.
  static constexpr std::uint32_t kNoPinSlot = 0xffffffffu;

  /// Overwrites selected input slots of one row with a definite sign:
  /// position k drives input slots[k] toward 1 (V = +3·init_std) when bit k
  /// of `bits` is set and toward 0 (V = -3·init_std) otherwise; slots equal
  /// to kNoPinSlot (set variables with no circuit input) are skipped.  The
  /// diversity objective calls this after re-seeding a row so its next
  /// descent starts *inside* a chosen not-yet-banked projected class — the
  /// pin is an initialization bias, not a constraint: descent can still
  /// flip a pinned input if the formula demands it.
  void pin_row_inputs(std::size_t row, const std::vector<std::uint32_t>& slots,
                      const std::uint64_t* bits);

  /// One GD iteration: embed, forward, backward, update.  Single fused
  /// data-parallel dispatch over batch rows.
  void run_iteration();

  /// Embed + forward only (no gradients); used for testing and diagnostics.
  void forward_only();

  /// Sum over rows and outputs of (y - t)^2 from the most recent
  /// forward_only() call (always computed), or the most recent
  /// run_iteration() when compute_loss is set.
  [[nodiscard]] double last_loss() const { return last_loss_; }

  /// Per-row L2 loss over the constrained outputs, captured during the most
  /// recent sweep: out[r] = sum_k (y_k[r] - t_k)^2 for r < batch.  Powers
  /// plateau restarts: rows whose loss stopped improving are stuck in a
  /// basin and worth re-seeding.  Bias terms on cone-free inputs are read
  /// from the current V.
  void row_losses(std::vector<float>& out) const;

  /// Hardens V into bits (V > 0) packed 64 rows per word: out[i * n_words()
  /// + w] holds rows [64w, 64w+63] of circuit input i.  Inputs outside the
  /// compiled cone harden from their (random) V too — those are the paper's
  /// unconstrained paths, where any random value satisfies.  Padding rows
  /// (>= batch) in the final word are always zero, so downstream consumers
  /// never observe uninitialized-V bits.
  void harden(std::vector<std::uint64_t>& packed_out) const;

  [[nodiscard]] std::size_t n_words() const { return n_tiles_; }

  /// Activation of an output slot (any CompiledCircuit::outputs() slot) for
  /// a row, captured during the most recent sweep.  Other slots live only
  /// in tile scratch and are not addressable.
  [[nodiscard]] float activation(std::uint32_t slot, std::size_t row) const;

  /// Soft-input access for tests.
  [[nodiscard]] float v_value(std::size_t input, std::size_t row) const;
  void set_v(std::size_t input, std::size_t row, float value);

  /// Bytes this engine actually holds: V, the per-row captures (output
  /// activations, row and tile losses) and the per-part tile scratch.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// The Fig. 3 memory model: what a PyTorch-style engine holding V, V.grad
  /// and batch-sized activations and gradients would allocate, i.e.
  /// (2 * inputs + 2 * slots) * padded batch floats.  Analytic, so the
  /// sweep can extend past allocatable points (the paper's V100 runs topped
  /// out at 32 GB too); memory_bytes() reports the real, smaller footprint.
  [[nodiscard]] static std::size_t predicted_bytes(const CompiledCircuit& compiled,
                                                   std::size_t batch);

 private:
  /// Config::input_biases resolved against the compiled circuit: biases on
  /// in-cone inputs become slot terms (gradient seeded like an output),
  /// biases on cone-free inputs descend V directly in update_tile.
  struct SlotBias {
    std::uint32_t slot = 0;
    float target = 1.0f;
    float weight = 1.0f;
  };
  struct FreeBias {
    std::uint32_t input = 0;
    float target = 1.0f;
    float weight = 1.0f;
  };

  /// One full pass over a tile in one part's scratch: embed, forward,
  /// capture (and loss), then seed, backward and update when with_grad.
  void process_tile(std::size_t tile, float* act, float* grad, bool with_grad,
                    bool want_loss);
  void sweep(bool with_grad);
  void embed_tile(std::size_t tile, float* act) const;
  /// Embeds one input row of a tile through the configured sigmoid (fast or
  /// exact, matching embed_tile exactly); used by the free-bias terms whose
  /// inputs have no activation slot.
  void sigmoid_row(const float* v_row, float* out) const;
  [[nodiscard]] double tile_loss(std::size_t tile, const float* act) const;
  /// Copies a tile's output activations and per-row losses out of scratch.
  void capture_tile(std::size_t tile, const float* act);
  void seed_gradients(const float* act, float* grad) const;
  void update_tile(std::size_t tile, const float* act, const float* grad);
  [[nodiscard]] std::size_t v_index(std::size_t input, std::size_t row) const;
  /// The pool V draws are replayed on: the global pool for a multi-part
  /// engine, none (a serial fill) for a one-part engine.
  [[nodiscard]] util::ThreadPool* fill_pool() const;

  const CompiledCircuit* compiled_;
  Config config_;
  /// Resolved bias terms (see SlotBias/FreeBias); both empty when
  /// Config::input_biases is.
  std::vector<SlotBias> slot_biases_;
  std::vector<FreeBias> free_biases_;
  std::size_t n_tiles_ = 0;
  /// Scratch parts, fixed at construction: 1 for kSerial, min(tiles, pool
  /// size) for kDataParallel.  Part p walks tiles [p * n_tiles / n_parts,
  /// (p + 1) * n_tiles / n_parts).
  std::size_t n_parts_ = 1;
  // V is tiled [tile][input][row-in-tile]; see engine.cpp.
  std::vector<float> v_;
  // Per part: activations then gradients, [slot][row-in-tile] each.
  std::vector<float> scratch_;
  // Per-row captures of the latest sweep: output activations tiled
  // [tile][output][row-in-tile], and the per-row loss (row_losses()).
  std::vector<float> output_act_;
  std::vector<float> row_loss_;
  // Per-tile loss scratch, reduced in tile order after each sweep — the
  // hot path never takes a lock, and the reduction order (hence the float
  // sum) is identical under every policy.
  std::vector<double> tile_loss_;
  double last_loss_ = 0.0;
};

}  // namespace hts::prob
