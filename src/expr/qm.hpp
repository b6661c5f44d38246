#pragma once

// Quine-McCluskey two-level minimization on dense truth tables.
//
// Used by hts::expr::Manager::simplify to resynthesize small-support
// sub-expressions recovered by the CNF transformation into compact SOP/POS
// form — the step the paper delegates to SymPy's simplify.  Exact prime
// implicant generation; cover selection takes essentials first, then a
// greedy set cover (optimal enough for the <= 10-variable functions the
// transformation resynthesizes, and always correct).

#include <cstdint>
#include <vector>

#include "expr/truth_table.hpp"

namespace hts::expr {

/// A product term (cube) over n support variables: for variable j,
/// (mask >> j) & 1 says whether the cube tests j; (value >> j) & 1 gives the
/// tested polarity.
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;

  [[nodiscard]] bool covers(std::uint64_t minterm) const {
    return (static_cast<std::uint32_t>(minterm) & mask) == value;
  }

  /// Number of tested literals.
  [[nodiscard]] int n_literals() const;

  bool operator==(const Cube&) const = default;
};

/// Minimal (irredundant) sum-of-products cover of tt.  Empty vector means
/// constant false; a single all-dont-care cube means constant true.
[[nodiscard]] std::vector<Cube> minimize_sop(const TruthTable& tt);

}  // namespace hts::expr
