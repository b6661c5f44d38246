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
#include "transform/transform.hpp"

namespace hts::sampler {

/// The paper's sampler takes exactly the loop's knobs (see GdLoopConfig);
/// the CNF -> circuit transformation runs at its defaults.  A formula's
/// sampling set ('c ind') scopes the amplifier's flips and projected dedup.
using GradientConfig = GdLoopConfig;

/// The loop configuration of a GradientConfig: the identity, since the two
/// are one type.  Kept because perfbench compiles against it.
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

  /// Loop accounting of the most recent run: the Fig. 3 per-iteration
  /// unique curve, engine bytes, restart volumes, harvest rows/time, ...
  /// All zero after a formula the transformation proves UNSAT.
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
