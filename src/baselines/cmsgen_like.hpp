#pragma once

// CMSGen-style baseline: a CDCL solver turned into a sampler by
// randomization alone (Golia et al., FMCAD'21: random polarities, random
// decision mixing, restart after every solution, no uniformity guarantee).
// Fast but CPU-sequential — the behaviour the paper's Table II column shows.

#include "core/sampler.hpp"
#include "solver/cdcl.hpp"

namespace hts::baselines {

struct CmsGenConfig {
  /// Fraction of branching decisions taken at random.
  double random_decision_freq = 0.15;
};

class CmsGenLike : public sampler::Sampler {
 public:
  explicit CmsGenLike(CmsGenConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "CMSGen-like"; }
  [[nodiscard]] sampler::RunResult run(const cnf::Formula& formula,
                                       const sampler::RunOptions& options) override;

 private:
  CmsGenConfig config_;
};

}  // namespace hts::baselines
