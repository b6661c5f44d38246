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
//
// simplify() runs Quine-McCluskey once per distinct truth table over a
// Manager's life: the covers are memoized by the table's variable count and
// words.  The memo changes no node: both covers are still rebuilt on every
// call, so node ids, and the order mk_and/mk_or sort children in, match an
// unmemoized run.
//
// A Manager is single-threaded, even through its const methods: support,
// truth_table and op_count_2input mark visited nodes in arrays the
// Manager owns, so that a query allocates no map per call.  Give each
// thread its own Manager (one transform owns one).

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expr/qm.hpp"
#include "expr/truth_table.hpp"
#include "util/stamp_set.hpp"

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

  /// Semantic simplification: for supports of at most 10 variables the
  /// function is resynthesized from its truth table via Quine-McCluskey (best
  /// of SOP and POS); the cheaper of {input, resynthesis} in 2-input-
  /// equivalent ops is returned.  Larger supports keep the (already locally
  /// simplified) input.  This mirrors the paper's SymPy `simplify` step;
  /// the covers are memoized as the file comment describes.
  [[nodiscard]] ExprId simplify(ExprId id);

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
  /// Doubles unique_ (at least kMinTableSize slots) and re-inserts every
  /// interned node.
  void grow_unique();

  /// Empties visited_ and makes every node addressable in it.
  void begin_visit() const;

  /// Shared flatten/sort/dedupe/annihilate machinery for AND/OR.
  [[nodiscard]] ExprId mk_andor(Kind op, std::vector<ExprId> children);

  [[nodiscard]] bool equivalent_by_bdd(ExprId a, ExprId b,
                                       std::span<const std::uint32_t> support_vars);

  /// minimize_sop(tt) through sop_memo_.
  [[nodiscard]] const std::vector<Cube>& minimized(const TruthTable& tt);

  struct TableHash {
    [[nodiscard]] std::size_t operator()(const TruthTable& tt) const noexcept;
  };

  std::vector<Node> nodes_;
  std::vector<ExprId> child_pool_;
  /// Every interned node, by node_key: open addressing with linear probing,
  /// kNoExpr marking a free slot.  A power of two, at most half full.
  std::vector<ExprId> unique_;
  std::unordered_map<ExprId, ExprId> negate_cache_;

  // Traversal state of the const queries, kept across calls.
  mutable util::StampSet visited_;
  mutable std::vector<ExprId> stack_;
  /// truth_table: the post-order walk, each node's table index, and the
  /// tables, word_count(n) words each.
  mutable std::vector<std::pair<ExprId, bool>> walk_;
  mutable std::vector<std::uint32_t> table_index_;
  mutable std::vector<std::uint64_t> table_words_;

  /// Quine-McCluskey covers by table.  TruthTable equality compares the
  /// variable count and the words, and the count matters: x0 & x1 over two
  /// variables and x0 & x1 & ~x2 over three hold the same word, 0x8.
  std::unordered_map<TruthTable, std::vector<Cube>, TableHash> sop_memo_;
};

}  // namespace hts::expr
