#pragma once

// WalkSAT-restart sampler (extension beyond the paper's Table II set): each
// solution is an independent local-search run from a random start.  Anchors
// the "cheap stochastic heuristic" end of the sampler spectrum in the
// extension benches.

#include "core/sampler.hpp"
#include "solver/walksat.hpp"

namespace hts::baselines {

class WalkSatSampler : public sampler::Sampler {
 public:
  [[nodiscard]] std::string name() const override { return "WalkSAT-restart"; }
  [[nodiscard]] sampler::RunResult run(const cnf::Formula& formula,
                                       const sampler::RunOptions& options) override;
};

}  // namespace hts::baselines
