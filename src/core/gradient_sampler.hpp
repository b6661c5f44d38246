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

/// The paper's sampler takes every loop knob (see GdLoopConfig) plus the
/// CNF -> circuit transformation's settings.  A formula's sampling set
/// ('c ind') scopes the amplifier's flips and projected dedup.
struct GradientConfig : GdLoopConfig {
  transform::Config transform;
};

/// The loop part of a sampler configuration: a plain slice, kept for
/// callers that hold a GradientConfig and want the GdLoopConfig value.
[[nodiscard]] inline GdLoopConfig make_gd_loop_config(
    const GradientConfig& config) {
  return config;
}

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
