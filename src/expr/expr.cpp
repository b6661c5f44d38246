#include "expr/expr.hpp"

#include <algorithm>
#include <sstream>

#include "bdd/bdd.hpp"

namespace hts::expr {

namespace {

/// simplify() resynthesizes supports of at most this many variables, so the
/// memo never holds a table over more than 16 words.
constexpr std::uint32_t kMaxResynthVars = 10;

/// unique_'s first size.
constexpr std::size_t kMinTableSize = 1024;

}  // namespace

Manager::Manager() {
  nodes_.push_back(Node{Kind::kConst0, 0, 0, 0});
  nodes_.push_back(Node{Kind::kConst1, 0, 0, 0});
}

std::uint32_t Manager::var_index(ExprId id) const {
  HTS_DCHECK(kind(id) == Kind::kVar);
  return nodes_[id].var;
}

std::span<const ExprId> Manager::children(ExprId id) const {
  const Node& n = nodes_[id];
  return {child_pool_.data() + n.child_begin, n.child_count};
}

std::uint64_t Manager::node_key(Kind kind, std::uint32_t var,
                                std::span<const ExprId> children) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(kind);
  h = (h ^ var) * 0xbf58476d1ce4e5b9ULL;
  for (const ExprId c : children) {
    h = (h ^ c) * 0x94d049bb133111ebULL;
    h ^= h >> 29;
  }
  // unique_ probes from the low bits; fold the high ones in (a leaf's
  // product alone keys its low bits on the variable's low bits only).
  return h ^ (h >> 32);
}

void Manager::grow_unique() {
  std::vector<ExprId> table(std::max(kMinTableSize, 2 * unique_.size()), kNoExpr);
  const std::size_t mask = table.size() - 1;
  // Nodes 0 and 1 (the constants) are never interned.
  for (ExprId id = 2; id < nodes_.size(); ++id) {
    std::size_t slot = node_key(kind(id), nodes_[id].var, children(id)) & mask;
    while (table[slot] != kNoExpr) slot = (slot + 1) & mask;
    table[slot] = id;
  }
  unique_ = std::move(table);
}

ExprId Manager::intern(Kind kind, std::uint32_t var,
                       std::span<const ExprId> children) {
  if (2 * (nodes_.size() + 1) > unique_.size()) grow_unique();
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = node_key(kind, var, children) & mask;
  for (; unique_[slot] != kNoExpr; slot = (slot + 1) & mask) {
    const ExprId candidate = unique_[slot];
    const Node& n = nodes_[candidate];
    if (n.kind == kind && n.var == var && n.child_count == children.size() &&
        std::equal(children.begin(), children.end(),
                   child_pool_.begin() + n.child_begin)) {
      return candidate;
    }
  }
  Node node;
  node.kind = kind;
  node.var = var;
  node.child_begin = static_cast<std::uint32_t>(child_pool_.size());
  node.child_count = static_cast<std::uint32_t>(children.size());
  child_pool_.insert(child_pool_.end(), children.begin(), children.end());
  const auto id = static_cast<ExprId>(nodes_.size());
  nodes_.push_back(node);
  unique_[slot] = id;
  return id;
}

ExprId Manager::var(std::uint32_t v) { return intern(Kind::kVar, v, {}); }

ExprId Manager::mk_not(ExprId a) {
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  if (kind(a) == Kind::kNot) return children(a)[0];
  const ExprId child[1] = {a};
  return intern(Kind::kNot, 0, child);
}

ExprId Manager::mk_andor(Kind op, std::vector<ExprId> items) {
  HTS_DCHECK(op == Kind::kAnd || op == Kind::kOr);
  const ExprId absorbing = (op == Kind::kAnd) ? const0() : const1();
  const ExprId identity = (op == Kind::kAnd) ? const1() : const0();

  // Flatten nested same-op nodes.
  std::vector<ExprId> flat;
  flat.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ExprId item = items[i];
    if (kind(item) == op) {
      for (const ExprId c : children(item)) items.push_back(c);
      continue;
    }
    if (item == absorbing) return absorbing;
    if (item == identity) continue;
    flat.push_back(item);
  }

  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());

  // Complement annihilation: x op ~x.
  for (const ExprId item : flat) {
    if (kind(item) == Kind::kNot &&
        std::binary_search(flat.begin(), flat.end(), children(item)[0])) {
      return absorbing;
    }
  }

  // Absorption: under AND drop any child OR(...) that contains another
  // child; dually under OR.
  const Kind dual = (op == Kind::kAnd) ? Kind::kOr : Kind::kAnd;
  std::vector<ExprId> kept;
  kept.reserve(flat.size());
  for (const ExprId item : flat) {
    bool absorbed = false;
    if (kind(item) == dual) {
      for (const ExprId inner : children(item)) {
        if (std::binary_search(flat.begin(), flat.end(), inner)) {
          absorbed = true;
          break;
        }
      }
    }
    if (!absorbed) kept.push_back(item);
  }

  if (kept.empty()) return identity;
  if (kept.size() == 1) return kept[0];
  return intern(op, 0, kept);
}

ExprId Manager::mk_and(std::vector<ExprId> items) {
  return mk_andor(Kind::kAnd, std::move(items));
}

ExprId Manager::mk_or(std::vector<ExprId> items) {
  return mk_andor(Kind::kOr, std::move(items));
}

ExprId Manager::mk_xor(std::vector<ExprId> items) {
  // Flatten, strip negations into a parity bit, cancel duplicate pairs.
  bool parity = false;  // true: result complemented
  std::vector<ExprId> flat;
  for (std::size_t i = 0; i < items.size(); ++i) {
    ExprId item = items[i];
    if (item == const1()) {
      parity = !parity;
      continue;
    }
    if (item == const0()) continue;
    if (kind(item) == Kind::kNot) {
      parity = !parity;
      item = children(item)[0];
    }
    if (kind(item) == Kind::kXor) {
      for (const ExprId c : children(item)) items.push_back(c);
      continue;
    }
    flat.push_back(item);
  }
  std::sort(flat.begin(), flat.end());
  // xor(x, x) = 0: drop pairs.
  std::vector<ExprId> kept;
  for (std::size_t i = 0; i < flat.size();) {
    if (i + 1 < flat.size() && flat[i] == flat[i + 1]) {
      i += 2;
      continue;
    }
    kept.push_back(flat[i]);
    ++i;
  }
  ExprId result;
  if (kept.empty()) {
    result = const0();
  } else if (kept.size() == 1) {
    result = kept[0];
  } else {
    result = intern(Kind::kXor, 0, kept);
  }
  return parity ? mk_not(result) : result;
}

void Manager::begin_visit() const {
  visited_.grow(nodes_.size());
  visited_.clear();
}

std::vector<std::uint32_t> Manager::support(ExprId id) const {
  std::vector<std::uint32_t> vars;
  begin_visit();
  visited_.insert(id);
  stack_.assign(1, id);
  while (!stack_.empty()) {
    const ExprId cur = stack_.back();
    stack_.pop_back();
    if (kind(cur) == Kind::kVar) vars.push_back(var_index(cur));
    for (const ExprId c : children(cur)) {
      if (visited_.insert(c)) stack_.push_back(c);
    }
  }
  // A variable has one node, so the list holds no duplicates.
  std::sort(vars.begin(), vars.end());
  return vars;
}

bool Manager::eval(ExprId id, const std::vector<std::uint8_t>& assignment) const {
  switch (kind(id)) {
    case Kind::kConst0:
      return false;
    case Kind::kConst1:
      return true;
    case Kind::kVar:
      HTS_DCHECK(var_index(id) < assignment.size());
      return assignment[var_index(id)] != 0;
    case Kind::kNot:
      return !eval(children(id)[0], assignment);
    case Kind::kAnd:
      for (const ExprId c : children(id)) {
        if (!eval(c, assignment)) return false;
      }
      return true;
    case Kind::kOr:
      for (const ExprId c : children(id)) {
        if (eval(c, assignment)) return true;
      }
      return false;
    case Kind::kXor: {
      bool acc = false;
      for (const ExprId c : children(id)) acc ^= eval(c, assignment);
      return acc;
    }
  }
  HTS_CHECK_MSG(false, "unreachable expr kind");
  return false;
}

TruthTable Manager::truth_table(ExprId id,
                                std::span<const std::uint32_t> support_vars) const {
  const auto n = static_cast<std::uint32_t>(support_vars.size());
  HTS_CHECK(n <= kMaxTruthTableVars);
  HTS_DCHECK(std::is_sorted(support_vars.begin(), support_vars.end()));
  const std::size_t n_words = TruthTable::word_count(n);
  if (table_index_.size() < nodes_.size()) table_index_.resize(nodes_.size());
  std::uint32_t n_tables = 0;
  auto table_of = [&](ExprId node) {
    return table_words_.data() + std::size_t{table_index_[node]} * n_words;
  };

  // Post-order evaluation with an explicit stack to avoid deep recursion on
  // chain-shaped circuits.  A node is marked when it is expanded, not when
  // pushed: in a DAG a marked child is then already evaluated or below its
  // parent on the stack.  Rows past 2^n in the last word may hold garbage
  // until from_words clears them.
  begin_visit();
  walk_.assign(1, {id, false});
  while (!walk_.empty()) {
    const auto [cur, expanded] = walk_.back();
    walk_.pop_back();
    if (!expanded) {
      if (!visited_.insert(cur)) continue;
      walk_.push_back({cur, true});
      for (const ExprId c : children(cur)) {
        if (!visited_.contains(c)) walk_.push_back({c, false});
      }
      continue;
    }
    table_index_[cur] = n_tables++;
    if (table_words_.size() < n_tables * n_words) {
      table_words_.resize(n_tables * n_words);
    }
    std::uint64_t* out = table_of(cur);
    const auto kids = children(cur);
    switch (kind(cur)) {
      case Kind::kConst0:
        std::fill(out, out + n_words, 0ULL);
        break;
      case Kind::kConst1:
        std::fill(out, out + n_words, ~0ULL);
        break;
      case Kind::kVar: {
        const auto it = std::lower_bound(support_vars.begin(), support_vars.end(),
                                         var_index(cur));
        HTS_CHECK_MSG(it != support_vars.end() && *it == var_index(cur),
                      "truth_table support does not cover expression");
        const auto j = static_cast<std::uint32_t>(it - support_vars.begin());
        for (std::size_t w = 0; w < n_words; ++w) {
          out[w] = TruthTable::projection_word(j, w);
        }
        break;
      }
      case Kind::kNot: {
        const std::uint64_t* in = table_of(kids[0]);
        for (std::size_t w = 0; w < n_words; ++w) out[w] = ~in[w];
        break;
      }
      case Kind::kAnd:
      case Kind::kOr:
      case Kind::kXor: {
        const Kind op = kind(cur);
        const std::uint64_t* first = table_of(kids[0]);
        std::copy(first, first + n_words, out);
        for (const ExprId c : kids.subspan(1)) {
          const std::uint64_t* in = table_of(c);
          for (std::size_t w = 0; w < n_words; ++w) {
            out[w] = op == Kind::kAnd  ? out[w] & in[w]
                     : op == Kind::kOr ? out[w] | in[w]
                                       : out[w] ^ in[w];
          }
        }
        break;
      }
    }
  }
  return TruthTable::from_words(n, {table_of(id), n_words});
}

ExprId Manager::negate(ExprId id) {
  if (auto it = negate_cache_.find(id); it != negate_cache_.end()) return it->second;
  ExprId result = kNoExpr;
  switch (kind(id)) {
    case Kind::kConst0:
      result = const1();
      break;
    case Kind::kConst1:
      result = const0();
      break;
    case Kind::kVar:
      result = mk_not(id);
      break;
    case Kind::kNot:
      result = children(id)[0];
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      // Copy the children before recursing: negate() allocates nodes, which
      // can reallocate the child pool under a live children() span.
      const auto kids = children(id);
      std::vector<ExprId> negated(kids.begin(), kids.end());
      for (ExprId& child : negated) child = negate(child);
      result = (kind(id) == Kind::kAnd) ? mk_or(std::move(negated))
                                        : mk_and(std::move(negated));
      break;
    }
    case Kind::kXor:
      result = mk_not(id);
      break;
  }
  negate_cache_.emplace(id, result);
  return result;
}

bool Manager::equivalent(ExprId a, ExprId b) {
  if (a == b) return true;
  std::vector<std::uint32_t> sa = support(a);
  std::vector<std::uint32_t> sb = support(b);
  std::vector<std::uint32_t> united;
  united.reserve(sa.size() + sb.size());
  std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                 std::back_inserter(united));
  if (united.size() <= kMaxTruthTableVars) {
    return truth_table(a, united) == truth_table(b, united);
  }
  return equivalent_by_bdd(a, b, united);
}

bool Manager::equivalent_by_bdd(ExprId a, ExprId b,
                                std::span<const std::uint32_t> support_vars) {
  bdd::Manager mgr(static_cast<std::uint32_t>(support_vars.size()));
  std::unordered_map<std::uint32_t, std::uint32_t> var_to_level;
  for (std::uint32_t j = 0; j < support_vars.size(); ++j) {
    var_to_level[support_vars[j]] = j;
  }
  // Iterative post-order construction for each root.
  auto build = [&](ExprId root) -> bdd::NodeId {
    std::unordered_map<ExprId, bdd::NodeId> memo;
    std::vector<std::pair<ExprId, bool>> stack{{root, false}};
    while (!stack.empty()) {
      auto [cur, expanded] = stack.back();
      stack.pop_back();
      if (memo.contains(cur)) continue;
      if (!expanded) {
        stack.push_back({cur, true});
        for (const ExprId c : children(cur)) stack.push_back({c, false});
        continue;
      }
      bdd::NodeId node = bdd::kFalse;
      switch (kind(cur)) {
        case Kind::kConst0:
          node = bdd::kFalse;
          break;
        case Kind::kConst1:
          node = bdd::kTrue;
          break;
        case Kind::kVar:
          node = mgr.make_var(var_to_level.at(var_index(cur)));
          break;
        case Kind::kNot:
          node = mgr.apply_not(memo.at(children(cur)[0]));
          break;
        case Kind::kAnd: {
          node = bdd::kTrue;
          for (const ExprId c : children(cur)) node = mgr.apply_and(node, memo.at(c));
          break;
        }
        case Kind::kOr: {
          node = bdd::kFalse;
          for (const ExprId c : children(cur)) node = mgr.apply_or(node, memo.at(c));
          break;
        }
        case Kind::kXor: {
          node = bdd::kFalse;
          for (const ExprId c : children(cur)) node = mgr.apply_xor(node, memo.at(c));
          break;
        }
      }
      memo.emplace(cur, node);
    }
    return memo.at(root);
  };
  return build(a) == build(b);
}

ExprId Manager::from_sop(std::span<const Cube> cover,
                         std::span<const std::uint32_t> support_vars) {
  if (cover.empty()) return const0();
  std::vector<ExprId> terms;
  terms.reserve(cover.size());
  for (const Cube& cube : cover) {
    std::vector<ExprId> lits;
    for (std::uint32_t j = 0; j < support_vars.size(); ++j) {
      if (((cube.mask >> j) & 1u) == 0) continue;
      const ExprId leaf = var(support_vars[j]);
      lits.push_back(((cube.value >> j) & 1u) != 0 ? leaf : mk_not(leaf));
    }
    terms.push_back(mk_and(std::move(lits)));
  }
  return mk_or(std::move(terms));
}

std::size_t Manager::TableHash::operator()(const TruthTable& tt) const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ tt.n_vars();
  for (const std::uint64_t word : tt.words()) {
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h);
}

const std::vector<Cube>& Manager::minimized(const TruthTable& tt) {
  auto it = sop_memo_.find(tt);
  if (it == sop_memo_.end()) it = sop_memo_.emplace(tt, minimize_sop(tt)).first;
  return it->second;
}

ExprId Manager::simplify(ExprId id) {
  const std::vector<std::uint32_t> vars = support(id);
  if (vars.size() > kMaxResynthVars) return id;

  const TruthTable tt = truth_table(id, vars);
  if (tt.is_constant_false()) return const0();
  if (tt.is_constant_true()) return const1();

  // Node creation order is part of the output (mk_andor sorts children by
  // ExprId), so both covers are rebuilt even when the input stays best.
  const ExprId sop_expr = from_sop(minimized(tt), vars);
  const ExprId pos_expr = negate(from_sop(minimized(~tt), vars));

  ExprId best = id;
  std::uint64_t best_cost = op_count_2input(id);
  if (const auto cost = op_count_2input(sop_expr); cost < best_cost) {
    best = sop_expr;
    best_cost = cost;
  }
  if (const auto cost = op_count_2input(pos_expr); cost < best_cost) {
    best = pos_expr;
    best_cost = cost;
  }
  return best;
}

std::uint64_t Manager::op_count_2input(ExprId id) const {
  const ExprId roots[1] = {id};
  return op_count_2input(std::span<const ExprId>(roots));
}

std::uint64_t Manager::op_count_2input(std::span<const ExprId> roots) const {
  std::uint64_t ops = 0;
  begin_visit();
  stack_.clear();
  for (const ExprId root : roots) {
    if (visited_.insert(root)) stack_.push_back(root);
  }
  while (!stack_.empty()) {
    const ExprId cur = stack_.back();
    stack_.pop_back();
    switch (kind(cur)) {
      case Kind::kConst0:
      case Kind::kConst1:
      case Kind::kVar:
        break;
      case Kind::kNot:
        ops += 1;
        break;
      case Kind::kAnd:
      case Kind::kOr:
      case Kind::kXor:
        ops += children(cur).size() - 1;
        break;
    }
    for (const ExprId c : children(cur)) {
      if (visited_.insert(c)) stack_.push_back(c);
    }
  }
  return ops;
}

std::string Manager::to_string(ExprId id) const {
  switch (kind(id)) {
    case Kind::kConst0:
      return "0";
    case Kind::kConst1:
      return "1";
    case Kind::kVar:
      return "x" + std::to_string(var_index(id));
    case Kind::kNot: {
      const ExprId c = children(id)[0];
      if (kind(c) == Kind::kVar) return "~x" + std::to_string(var_index(c));
      return "~(" + to_string(c) + ")";
    }
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kXor: {
      const char* sep = kind(id) == Kind::kAnd ? " & "
                        : kind(id) == Kind::kOr ? " | "
                                                : " ^ ";
      std::ostringstream out;
      out << '(';
      bool first = true;
      for (const ExprId c : children(id)) {
        if (!first) out << sep;
        first = false;
        out << to_string(c);
      }
      out << ')';
      return out.str();
    }
  }
  return "?";
}

}  // namespace hts::expr
