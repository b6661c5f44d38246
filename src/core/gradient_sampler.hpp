#pragma once

// The paper's sampler: CNF -> multi-level circuit (Algorithm 1) ->
// probabilistic relaxation -> batched gradient descent -> harden & verify.
//
// Each batch row is an independent regression problem; after every GD
// iteration the soft inputs are hardened (V > 0), the circuit is evaluated
// bit-parallel (64 rows per machine word), rows meeting all output
// constraints are projected back to original-variable assignments, and new
// unique solutions are banked.  Rounds of fresh random initializations run
// until the target count or deadline is reached.

#include <optional>

#include "core/gd_loop.hpp"
#include "core/sampler.hpp"
#include "prob/engine.hpp"
#include "tensor/tensor.hpp"
#include "transform/transform.hpp"

namespace hts::sampler {

struct GradientConfig {
  std::size_t batch = 4096;
  int iterations = 5;           // the paper's setting
  float learning_rate = 10.0f;  // the paper's setting
  float init_std = 2.0f;
  /// Harden-and-collect after every iteration (the Fig. 3 learning curve
  /// harvests per-iteration; disabling collects only after the last one).
  bool collect_each_iteration = true;
  /// Compile only the constrained cone for GD (ablation; unconstrained
  /// inputs stay at their random initialization either way).
  bool cone_only = false;
  tensor::Policy policy = tensor::Policy::kDataParallel;
  /// Stop after this many rounds regardless of targets (0 = unlimited).
  std::uint64_t max_rounds = 0;
  /// Round-parallel workers (see GdLoopConfig::n_workers): 1 = the legacy
  /// serial loop, 0 = hardware concurrency, N > 1 = N engines racing through
  /// decorrelated rounds into a shared unique bank.
  std::size_t n_workers = 1;
  /// Re-seed rows that already satisfied after each mid-round harvest
  /// (see GdLoopConfig::restart_solved).
  bool restart_solved = true;
  /// Re-seed rows whose per-row loss plateaued above zero for this many
  /// harvest windows; 0 disables (see GdLoopConfig::restart_plateau).
  std::size_t restart_plateau = 0;
  /// Vectorized fast sigmoid for the embed step (see Engine::Config).
  bool fast_sigmoid = true;
  /// Tape optimizer (see GdLoopConfig::optimize_tape).
  bool optimize_tape = true;
  /// Flip-amplify freshly banked solutions after every harvest (see
  /// AmplifyConfig; off = bit-identical legacy stream).  The flip support is
  /// the formula's sampling set ('c ind') when one is declared.
  AmplifyConfig amplify;
  /// Key unique solutions on the sampling-set projection when a set is
  /// active (see GdLoopConfig::projected_dedup).
  bool projected_dedup = true;
  /// Re-seed rows descending into already-banked projected classes (see
  /// GdLoopConfig::diversity_restart; needs a sampling set + projected
  /// dedup, off by default).
  bool diversity_restart = false;
  /// Per-literal loss weights (see LitWeight; empty = unweighted,
  /// bit-identical stream).
  std::vector<LitWeight> lit_weights;
  transform::Config transform;
};

/// Loop configuration implied by a sampler configuration.  One mapping,
/// shared by GradientSampler::run and the sampling service's job runner, so
/// a GradientConfig knob can never silently stop reaching the loop on one
/// of the two paths.  (transform is consumed earlier, at circuit-extraction
/// time, and n_workers is ignored by the service — its parallelism axis is
/// concurrent requests, not round-parallel workers within one.)
[[nodiscard]] GdLoopConfig make_gd_loop_config(const GradientConfig& config);

class GradientSampler : public Sampler {
 public:
  explicit GradientSampler(GradientConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "HTS-GD(this work)"; }
  [[nodiscard]] RunResult run(const cnf::Formula& formula,
                              const RunOptions& options) override;

  /// Per-iteration unique counts of the most recent run (cumulative), for
  /// the Fig. 3 learning curve.
  [[nodiscard]] const std::vector<std::size_t>& uniques_per_iteration() const {
    return extras_.uniques_per_iteration;
  }

  /// Engine bytes held by the most recent run (Engine::memory_bytes).
  [[nodiscard]] std::size_t engine_memory_bytes() const {
    return extras_.engine_memory_bytes;
  }

  /// Full loop accounting of the most recent run (restart volumes, harvest
  /// rows/time for the rows-validated/sec bench metric, ...).
  [[nodiscard]] const GdLoopExtras& extras() const { return extras_; }

  /// Transformation statistics of the most recent run.
  [[nodiscard]] const std::optional<transform::Stats>& transform_stats() const {
    return transform_stats_;
  }

 private:
  GradientConfig config_;
  GdLoopExtras extras_;
  std::optional<transform::Stats> transform_stats_;
};

}  // namespace hts::sampler
