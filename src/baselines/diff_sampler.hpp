#pragma once

// DiffSampler-style baseline (Ardakani et al., DAC'24 late-breaking): batched
// gradient descent directly on the *flat CNF* relaxation — every clause
// becomes an OR gate constrained to 1, with no multi-level extraction.
//
// Runs on the exact same tensor/prob kernels as the paper's sampler, so the
// throughput gap between the two isolates the contribution of the CNF ->
// multi-level transformation (more ops per pass + a much harder loss
// landscape for the flat form).

#include "core/gd_loop.hpp"
#include "core/sampler.hpp"

namespace hts::baselines {

/// Every loop knob (see GdLoopConfig); a formula's 'c ind' set scopes the
/// amplifier's flips and projected dedup, as for the paper's sampler.
struct DiffSamplerConfig : sampler::GdLoopConfig {
  /// Flat-CNF GD needs more iterations to zero in than the circuit form;
  /// the original DiffSampler runs tens of optimizer steps.
  DiffSamplerConfig() { iterations = 20; }
};

/// Builds the flat problem: inputs = original variables, one OR gate per
/// clause, every clause constrained to 1.  Exposed for tests/benches.
struct FlatProblem {
  circuit::Circuit circuit;
  std::vector<circuit::SignalId> var_signal;
};
[[nodiscard]] FlatProblem build_flat_problem(const cnf::Formula& formula);

class DiffSampler : public sampler::Sampler {
 public:
  explicit DiffSampler(DiffSamplerConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "DiffSampler-like"; }
  [[nodiscard]] sampler::RunResult run(const cnf::Formula& formula,
                                       const sampler::RunOptions& options) override;

 private:
  DiffSamplerConfig config_;
};

}  // namespace hts::baselines
