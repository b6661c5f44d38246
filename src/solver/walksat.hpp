#pragma once

// WalkSAT stochastic local search (Selman et al.).
//
// Included as the classic local-search point in the solver family; also a
// useful diversity engine in its own right.  Not one of the paper's Table II
// baselines, but it anchors the "heuristic sampler" end of the spectrum in
// the extension benches.

#include <cstdint>
#include <optional>

#include "cnf/formula.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace hts::solver {

struct WalkSatConfig {
  std::uint64_t max_flips = 100000;
  std::uint64_t seed = 0x5eed;
};

class WalkSat {
 public:
  explicit WalkSat(const cnf::Formula& formula, WalkSatConfig config = {});

  /// One restart from a fresh random assignment; returns a model when found
  /// within max_flips, nullopt when the flips run out or `stop` fires
  /// (polled every 1024 flips).
  [[nodiscard]] std::optional<cnf::Assignment> search(
      const util::StopToken& stop = {});

  [[nodiscard]] std::uint64_t total_flips() const { return total_flips_; }

 private:
  [[nodiscard]] std::size_t break_count(cnf::Var v) const;
  void flip(cnf::Var v);

  const cnf::Formula* formula_;
  WalkSatConfig config_;
  util::Rng rng_;
  cnf::Assignment assignment_;
  // Clause bookkeeping: number of true literals per clause, list of
  // currently-unsatisfied clause indices with positions for O(1) removal.
  std::vector<std::uint32_t> n_true_;
  std::vector<std::size_t> unsat_clauses_;
  std::vector<std::size_t> unsat_pos_;  // clause -> index in unsat_clauses_ (or npos)
  std::vector<std::vector<std::size_t>> occurs_;  // lit code -> clause indices
  std::uint64_t total_flips_ = 0;

  static constexpr std::size_t kNotInUnsat = static_cast<std::size_t>(-1);

  void rebuild(const cnf::Assignment& assignment);
  void mark_sat(std::size_t clause);
  void mark_unsat(std::size_t clause);
};

}  // namespace hts::solver
