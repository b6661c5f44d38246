#pragma once

// Hash-consed Boolean expression DAG with algebraic simplification and exact
// semantic queries — the repo's replacement for the paper's use of SymPy.
//
// Expressions are immutable nodes owned by a Manager; ExprId is an index
// into its node table.  Construction applies local algebraic rules
// (flattening, unit/zero elements, complement annihilation, absorption, XOR
// parity normalization) so structurally-different but trivially-equal inputs
// intern to one node.  Exact equivalence / complement checks use truth
// tables when the combined support is small and fall back to BDDs.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/qm.hpp"
#include "expr/truth_table.hpp"

namespace hts::expr {

enum class Kind : std::uint8_t { kConst0, kConst1, kVar, kNot, kAnd, kOr, kXor };

using ExprId = std::uint32_t;
inline constexpr ExprId kNoExpr = static_cast<ExprId>(-1);

class Manager {
 public:
  Manager();

  // --- node constructors -------------------------------------------------

  [[nodiscard]] ExprId const0() const { return 0; }
  [[nodiscard]] ExprId const1() const { return 1; }
  [[nodiscard]] ExprId var(std::uint32_t v);

  [[nodiscard]] ExprId mk_not(ExprId a);
  [[nodiscard]] ExprId mk_and(std::vector<ExprId> children);
  [[nodiscard]] ExprId mk_or(std::vector<ExprId> children);
  [[nodiscard]] ExprId mk_xor(std::vector<ExprId> children);

  [[nodiscard]] ExprId mk_and2(ExprId a, ExprId b) { return mk_and({a, b}); }
  [[nodiscard]] ExprId mk_or2(ExprId a, ExprId b) { return mk_or({a, b}); }
  [[nodiscard]] ExprId mk_xor2(ExprId a, ExprId b) { return mk_xor({a, b}); }
  /// if s then a else b.
  [[nodiscard]] ExprId mk_mux(ExprId s, ExprId a, ExprId b) {
    return mk_or2(mk_and2(s, a), mk_and2(mk_not(s), b));
  }

  // --- accessors ----------------------------------------------------------

  [[nodiscard]] Kind kind(ExprId id) const { return nodes_[id].kind; }
  [[nodiscard]] std::uint32_t var_index(ExprId id) const;
  [[nodiscard]] std::span<const ExprId> children(ExprId id) const;
  [[nodiscard]] bool is_const(ExprId id) const {
    return kind(id) == Kind::kConst0 || kind(id) == Kind::kConst1;
  }
  [[nodiscard]] std::size_t n_nodes() const { return nodes_.size(); }

  // --- semantics ----------------------------------------------------------

  /// Sorted list of variables the expression depends on (structurally).
  [[nodiscard]] std::vector<std::uint32_t> support(ExprId id) const;

  /// Evaluates under a complete assignment (index = variable).
  [[nodiscard]] bool eval(ExprId id, const std::vector<std::uint8_t>& assignment) const;

  /// Truth table of id over support_vars (sorted ascending; must cover the
  /// structural support).  support_vars.size() <= kMaxTruthTableVars.
  [[nodiscard]] TruthTable truth_table(ExprId id,
                                       std::span<const std::uint32_t> support_vars) const;

  /// Negation pushed into the DAG via De Morgan / XOR parity, memoized.
  /// Unlike mk_not this never produces a top-level kNot over AND/OR, which
  /// lets complement checks of factored forms succeed structurally.
  [[nodiscard]] ExprId negate(ExprId id);

  /// Exact equivalence.  Truth tables when the union support is <=
  /// kMaxTruthTableVars; otherwise a BDD check (node-budgeted; throws
  /// bdd::CapacityError if the query is too large — callers treat that as
  /// "unknown").
  [[nodiscard]] bool equivalent(ExprId a, ExprId b);

  /// True iff a == NOT b (exactly).
  [[nodiscard]] bool complementary(ExprId a, ExprId b) {
    return equivalent(a, negate(b));
  }

  /// Semantic simplification: for supports <= max_resynth_vars the function
  /// is resynthesized from its truth table via Quine-McCluskey (best of SOP
  /// and POS); the cheaper of {input, resynthesis} in 2-input-equivalent ops
  /// is returned.  Larger supports keep the (already locally simplified)
  /// input.  This mirrors the paper's SymPy `simplify` step.
  [[nodiscard]] ExprId simplify(ExprId id, std::uint32_t max_resynth_vars = 12);

  /// 2-input gate-equivalent cost of the sub-DAG under id (shared nodes
  /// counted once).  NOT costs 1.
  [[nodiscard]] std::uint64_t op_count_2input(ExprId id) const;

  /// As above for a multi-rooted DAG (shared logic across roots counted once).
  [[nodiscard]] std::uint64_t op_count_2input(std::span<const ExprId> roots) const;

  /// Human-readable infix form with ~ & | ^ and x<i> variables.
  [[nodiscard]] std::string to_string(ExprId id) const;

  /// Builds an expression from a SOP cover over the given support variables.
  [[nodiscard]] ExprId from_sop(std::span<const Cube> cover,
                                std::span<const std::uint32_t> support_vars);

 private:
  struct Node {
    Kind kind;
    std::uint32_t var = 0;         // for kVar
    std::uint32_t child_begin = 0; // into child_pool_
    std::uint32_t child_count = 0;
  };

  [[nodiscard]] ExprId intern(Kind kind, std::uint32_t var,
                              std::span<const ExprId> children);
  [[nodiscard]] std::uint64_t node_key(Kind kind, std::uint32_t var,
                                       std::span<const ExprId> children) const;

  /// Shared flatten/sort/dedupe/annihilate machinery for AND/OR.
  [[nodiscard]] ExprId mk_andor(Kind op, std::vector<ExprId> children);

  [[nodiscard]] bool equivalent_by_bdd(ExprId a, ExprId b,
                                       std::span<const std::uint32_t> support_vars);

  std::vector<Node> nodes_;
  std::vector<ExprId> child_pool_;
  std::unordered_map<std::uint64_t, std::vector<ExprId>> unique_;  // key -> candidates
  std::unordered_map<ExprId, ExprId> negate_cache_;
  std::unordered_map<std::uint32_t, ExprId> var_nodes_;
};

}  // namespace hts::expr
