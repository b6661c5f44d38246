#pragma once

// UniGen3-style baseline: approximately-uniform sampling via universal
// (XOR) hashing over a CDCL oracle (Soos et al., CAV'20 lineage).
//
// Each round draws m random parity constraints that partition the solution
// space into ~2^m cells, enumerates the current cell (bounded by a pivot of
// 32 models), and emits a random subset of it.  m adapts until cells are
// small enough to enumerate yet non-empty.  Strong uniformity, but every
// sample costs solver enumeration over a formula enlarged by XOR chains —
// which is exactly why the real UniGen3 sits at ~0.2-100 solutions/s in the
// paper's Table II.

#include "core/sampler.hpp"

namespace hts::baselines {

struct UniGenConfig {
  /// Samples emitted per successfully enumerated cell.
  std::size_t samples_per_cell = 8;
};

class UniGenLike : public sampler::Sampler {
 public:
  explicit UniGenLike(UniGenConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "UniGen3-like"; }
  [[nodiscard]] sampler::RunResult run(const cnf::Formula& formula,
                                       const sampler::RunOptions& options) override;

 private:
  UniGenConfig config_;
};

}  // namespace hts::baselines
