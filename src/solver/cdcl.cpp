#include "solver/cdcl.hpp"

#include <algorithm>
#include <cmath>

namespace hts::solver {

using cnf::LBool;
using cnf::Lit;
using cnf::Var;

/// EVSIDS activity decay per conflict, for variables and learned clauses.
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
/// Luby restart unit (conflicts).
constexpr std::uint64_t kRestartBase = 100;

CdclSolver::CdclSolver(const CdclConfig& config)
    : config_(config), rng_(config.seed) {}

void CdclSolver::ensure_vars(Var n_vars) {
  while (assigns_.size() < n_vars) {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::kUndef);
    saved_phase_.push_back(0);
    level_.push_back(0);
    reason_.push_back(kNoReason);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
  }
}

void CdclSolver::add_formula(const cnf::Formula& formula) {
  ensure_vars(formula.n_vars());
  for (const cnf::Clause& clause : formula.clauses()) add_clause(clause);
}

bool CdclSolver::add_clause(const cnf::Clause& clause) {
  if (!ok_) return false;
  HTS_CHECK_MSG(trail_lim_.empty(), "add_clause requires decision level 0");
  // Normalize: sort, dedupe, drop false literals, detect tautology.
  cnf::Clause lits = clause;
  for (const Lit l : lits) ensure_vars(l.var() + 1);
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  cnf::Clause filtered;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i + 1] == ~lits[i]) return true;  // tautology
    if (value(lits[i]) == LBool::kTrue) return true;  // already satisfied
    if (value(lits[i]) == LBool::kFalse) continue;    // falsified at level 0
    filtered.push_back(lits[i]);
  }
  if (filtered.empty()) {
    ok_ = false;
    return false;
  }
  if (filtered.size() == 1) {
    enqueue(filtered[0], kNoReason);
    if (propagate() != kNoReason) {
      ok_ = false;
      return false;
    }
    return true;
  }
  clauses_.push_back(ClauseData{std::move(filtered), 0.0, 0, false, false});
  attach(static_cast<ClauseRef>(clauses_.size() - 1));
  return true;
}

void CdclSolver::attach(ClauseRef ref) {
  const auto& lits = clauses_[ref].lits;
  HTS_DCHECK(lits.size() >= 2);
  watches_[(~lits[0]).code()].push_back(Watcher{ref, lits[1]});
  watches_[(~lits[1]).code()].push_back(Watcher{ref, lits[0]});
}

void CdclSolver::enqueue(Lit lit, ClauseRef reason) {
  HTS_DCHECK(value(lit) == LBool::kUndef);
  assigns_[lit.var()] = lit.negated() ? LBool::kFalse : LBool::kTrue;
  level_[lit.var()] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[lit.var()] = reason;
  trail_.push_back(lit);
}

CdclSolver::ClauseRef CdclSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[keep++] = w;
        continue;
      }
      ClauseData& clause = clauses_[w.clause];
      auto& lits = clause.lits;
      // Ensure the falsified literal (~p) sits at index 1.
      if (lits[0] == ~p) std::swap(lits[0], lits[1]);
      HTS_DCHECK(lits[1] == ~p);
      if (value(lits[0]) == LBool::kTrue) {
        ws[keep++] = Watcher{w.clause, lits[0]};
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (value(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).code()].push_back(Watcher{w.clause, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      if (value(lits[0]) == LBool::kFalse) {
        // Conflict: restore remaining watchers and bail out.
        for (std::size_t j = i; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      ws[keep++] = w;
      enqueue(lits[0], w.clause);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void CdclSolver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  // Sift up if present in the heap.
  if (heap_pos_[v] >= 0) {
    std::size_t i = static_cast<std::size_t>(heap_pos_[v]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (activity_[order_[parent]] >= activity_[order_[i]]) break;
      std::swap(order_[parent], order_[i]);
      heap_pos_[order_[parent]] = static_cast<std::int32_t>(parent);
      heap_pos_[order_[i]] = static_cast<std::int32_t>(i);
      i = parent;
    }
  }
}

void CdclSolver::bump_clause(ClauseData& clause) {
  clause.activity += clause_inc_;
  if (clause.activity > 1e20) {
    for (ClauseData& c : clauses_) c.activity *= 1e-20;
    clause_inc_ *= 1e-20;
  }
}

void CdclSolver::heap_insert(Var v) {
  if (heap_pos_[v] >= 0) return;
  order_.push_back(v);
  std::size_t i = order_.size() - 1;
  heap_pos_[v] = static_cast<std::int32_t>(i);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[order_[parent]] >= activity_[order_[i]]) break;
    std::swap(order_[parent], order_[i]);
    heap_pos_[order_[parent]] = static_cast<std::int32_t>(parent);
    heap_pos_[order_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
}

Var CdclSolver::heap_pop_max() {
  HTS_DCHECK(!order_.empty());
  const Var top = order_[0];
  heap_pos_[top] = -1;
  if (order_.size() > 1) {
    order_[0] = order_.back();
    heap_pos_[order_[0]] = 0;
  }
  order_.pop_back();
  // Sift down.
  std::size_t i = 0;
  for (;;) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    std::size_t best = i;
    if (left < order_.size() && activity_[order_[left]] > activity_[order_[best]]) {
      best = left;
    }
    if (right < order_.size() && activity_[order_[right]] > activity_[order_[best]]) {
      best = right;
    }
    if (best == i) break;
    std::swap(order_[i], order_[best]);
    heap_pos_[order_[i]] = static_cast<std::int32_t>(i);
    heap_pos_[order_[best]] = static_cast<std::int32_t>(best);
    i = best;
  }
  return top;
}

void CdclSolver::rebuild_order_heap() {
  order_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), -1);
  std::vector<Var> vars(assigns_.size());
  for (Var v = 0; v < vars.size(); ++v) vars[v] = v;
  rng_.shuffle(vars);
  for (const Var v : vars) heap_insert(v);
}

Lit CdclSolver::pick_branch() {
  Var chosen = cnf::kInvalidVar;
  // Optional random decision.
  if (config_.random_decision_freq > 0.0 &&
      rng_.next_bool(config_.random_decision_freq)) {
    // Draw a few candidates; fall through to the heap if all assigned.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Var v = static_cast<Var>(rng_.next_below(assigns_.size()));
      if (value(v) == LBool::kUndef) {
        chosen = v;
        break;
      }
    }
  }
  while (chosen == cnf::kInvalidVar) {
    if (order_.empty()) return Lit();  // should not happen; guarded by caller
    const Var v = heap_pop_max();
    if (value(v) == LBool::kUndef) chosen = v;
  }
  bool phase = false;
  switch (config_.polarity) {
    case CdclConfig::Polarity::kSaved:
      phase = saved_phase_[chosen] != 0;
      break;
    case CdclConfig::Polarity::kRandom:
      phase = rng_.next_bool();
      break;
  }
  return Lit(chosen, !phase);
}

void CdclSolver::backtrack(std::uint32_t target_level) {
  if (trail_lim_.size() <= target_level) return;
  const std::uint32_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    saved_phase_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
    assigns_[v] = LBool::kUndef;
    reason_[v] = kNoReason;
    heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

bool CdclSolver::lit_redundant(Lit lit, std::uint32_t abstract_levels) {
  // Recursive minimization (Sorensson-Biere) with an explicit stack.  Every
  // variable marked here lands in to_clear_, which analyze() resets in bulk;
  // a stale seen_ bit would silently corrupt the next conflict analysis.
  std::vector<Lit> stack{lit};
  const std::size_t checkpoint = to_clear_.size();
  while (!stack.empty()) {
    const Lit l = stack.back();
    stack.pop_back();
    const ClauseRef reason = reason_[l.var()];
    if (reason == kNoReason || reason == kDecisionReason) {
      for (std::size_t i = checkpoint; i < to_clear_.size(); ++i) {
        seen_[to_clear_[i]] = 0;
      }
      to_clear_.resize(checkpoint);
      return false;
    }
    for (const Lit q : clauses_[reason].lits) {
      if (q.var() == l.var() || seen_[q.var()] != 0 || level_[q.var()] == 0) continue;
      const std::uint32_t mask = 1u << (level_[q.var()] & 31);
      if (reason_[q.var()] == kNoReason || reason_[q.var()] == kDecisionReason ||
          (abstract_levels & mask) == 0) {
        for (std::size_t i = checkpoint; i < to_clear_.size(); ++i) {
          seen_[to_clear_[i]] = 0;
        }
        to_clear_.resize(checkpoint);
        return false;
      }
      seen_[q.var()] = 1;
      to_clear_.push_back(q.var());
      stack.push_back(q);
    }
  }
  return true;
}

void CdclSolver::analyze(ClauseRef conflict, std::vector<Lit>& learnt_out,
                         std::uint32_t& backtrack_level, std::uint32_t& lbd_out) {
  learnt_out.clear();
  learnt_out.push_back(Lit());  // slot for the asserting literal
  const std::uint32_t current_level = static_cast<std::uint32_t>(trail_lim_.size());

  std::uint32_t counter = 0;
  Lit p;
  bool have_p = false;
  std::size_t index = trail_.size();
  ClauseRef reason = conflict;

  for (;;) {
    HTS_DCHECK(reason != kNoReason);
    ClauseData& clause = clauses_[reason];
    if (clause.learned) bump_clause(clause);
    for (const Lit q : clause.lits) {
      if (have_p && q == p) continue;
      if (seen_[q.var()] != 0 || level_[q.var()] == 0) continue;
      seen_[q.var()] = 1;
      to_clear_.push_back(q.var());
      bump_var(q.var());
      if (level_[q.var()] >= current_level) {
        ++counter;
      } else {
        learnt_out.push_back(q);
      }
    }
    // Walk the trail to the next marked literal.
    while (seen_[trail_[index - 1].var()] == 0) --index;
    p = trail_[--index];
    have_p = true;
    seen_[p.var()] = 0;
    --counter;
    if (counter == 0) break;
    reason = reason_[p.var()];
  }
  learnt_out[0] = ~p;

  // Minimize.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt_out.size(); ++i) {
    abstract_levels |= 1u << (level_[learnt_out[i].var()] & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt_out.size(); ++i) {
    const ClauseRef r = reason_[learnt_out[i].var()];
    if (r == kNoReason || r == kDecisionReason ||
        !lit_redundant(learnt_out[i], abstract_levels)) {
      learnt_out[keep++] = learnt_out[i];
    }
  }
  learnt_out.resize(keep);

  // Backtrack level: highest level among the non-asserting literals.
  backtrack_level = 0;
  if (learnt_out.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt_out.size(); ++i) {
      if (level_[learnt_out[i].var()] > level_[learnt_out[max_i].var()]) max_i = i;
    }
    std::swap(learnt_out[1], learnt_out[max_i]);
    backtrack_level = level_[learnt_out[1].var()];
  }

  // LBD: number of distinct levels in the learnt clause.
  std::vector<std::uint32_t> levels;
  levels.reserve(learnt_out.size());
  for (const Lit l : learnt_out) levels.push_back(level_[l.var()]);
  std::sort(levels.begin(), levels.end());
  lbd_out = static_cast<std::uint32_t>(
      std::unique(levels.begin(), levels.end()) - levels.begin());

  // Clear every flag set during analysis and minimization.
  for (const Var v : to_clear_) seen_[v] = 0;
  to_clear_.clear();
}

void CdclSolver::reduce_learned() {
  // Keep the better half of learned clauses (by activity; low-LBD protected).
  std::vector<ClauseRef> learned;
  for (ClauseRef i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].learned && !clauses_[i].deleted && clauses_[i].lbd > 2 &&
        clauses_[i].lits.size() > 2) {
      learned.push_back(i);
    }
  }
  if (learned.size() < 100) return;
  std::sort(learned.begin(), learned.end(), [this](ClauseRef a, ClauseRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  // Never delete a clause that is currently a reason.
  std::vector<std::uint8_t> is_reason(clauses_.size(), 0);
  for (const Lit l : trail_) {
    const ClauseRef r = reason_[l.var()];
    if (r != kNoReason && r != kDecisionReason) is_reason[r] = 1;
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i < learned.size() / 2; ++i) {
    const ClauseRef ref = learned[i];
    if (is_reason[ref] != 0) continue;
    clauses_[ref].deleted = true;
    ++removed;
  }
  if (removed == 0) return;
  stats_.removed += removed;
  // Rebuild watches without the deleted clauses.
  for (auto& ws : watches_) {
    std::size_t keep = 0;
    for (const Watcher& w : ws) {
      if (!clauses_[w.clause].deleted) ws[keep++] = w;
    }
    ws.resize(keep);
  }
}

std::uint64_t CdclSolver::luby(std::uint64_t n) const {
  // Luby sequence, 1-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  HTS_DCHECK(n >= 1);
  std::uint64_t k = 1;
  while (((1ULL << k) - 1) < n) ++k;
  while (((1ULL << k) - 1) != n) {
    n -= (1ULL << (k - 1)) - 1;
    k = 1;
    while (((1ULL << k) - 1) < n) ++k;
  }
  return 1ULL << (k - 1);
}

Status CdclSolver::solve(const std::vector<Lit>& assumptions,
                         const util::StopToken& stop) {
  if (!ok_) return Status::kUnsat;
  backtrack(0);

  std::uint64_t conflicts_this_solve = 0;
  std::uint64_t restart_count = 0;
  std::uint64_t restart_limit = kRestartBase * luby(1);
  std::uint64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_solve;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        ok_ = false;
        return Status::kUnsat;
      }
      std::uint32_t bt_level = 0;
      std::uint32_t lbd = 0;
      analyze(conflict, learnt, bt_level, lbd);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        clauses_.push_back(ClauseData{learnt, clause_inc_, lbd, true, false});
        attach(static_cast<ClauseRef>(clauses_.size() - 1));
        enqueue(learnt[0], static_cast<ClauseRef>(clauses_.size() - 1));
        ++stats_.learned;
      }
      var_inc_ /= kVarDecay;
      clause_inc_ /= kClauseDecay;
      if (stats_.learned > 0 && stats_.learned % 2000 == 0) reduce_learned();
      if (config_.conflict_budget > 0 &&
          conflicts_this_solve >= static_cast<std::uint64_t>(config_.conflict_budget)) {
        backtrack(0);
        return Status::kUnknown;
      }
      continue;
    }

    if (stop.stop_requested()) {
      backtrack(0);
      return Status::kUnknown;
    }

    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      ++restart_count;
      conflicts_since_restart = 0;
      restart_limit = kRestartBase * luby(restart_count + 1);
      backtrack(0);
      continue;
    }

    // Apply assumptions first.
    if (trail_lim_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_lim_.size()];
      if (value(a) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        continue;
      }
      if (value(a) == LBool::kFalse) {
        backtrack(0);
        return Status::kUnsat;  // assumptions conflict
      }
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      enqueue(a, kDecisionReason);
      continue;
    }

    if (trail_.size() == assigns_.size()) {
      // Complete assignment: record the model.
      model_.assign(assigns_.size(), 0);
      for (Var v = 0; v < assigns_.size(); ++v) {
        model_[v] = assigns_[v] == LBool::kTrue ? 1 : 0;
      }
      backtrack(0);
      return Status::kSat;
    }

    ++stats_.decisions;
    const Lit decision = pick_branch();
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(decision, kDecisionReason);
  }
}

bool CdclSolver::block_model(const std::vector<Var>& projection) {
  HTS_CHECK_MSG(!model_.empty(), "block_model requires a prior SAT answer");
  cnf::Clause blocking;
  if (projection.empty()) {
    blocking.reserve(model_.size());
    for (Var v = 0; v < model_.size(); ++v) {
      blocking.push_back(Lit(v, model_[v] != 0));
    }
  } else {
    blocking.reserve(projection.size());
    for (const Var v : projection) {
      blocking.push_back(Lit(v, model_[v] != 0));
    }
  }
  return add_clause(blocking);
}

void CdclSolver::reshuffle(std::uint64_t seed) {
  rng_.reseed(seed);
  backtrack(0);
  for (double& a : activity_) a = rng_.next_double();
  var_inc_ = 1.0;
  rebuild_order_heap();
  for (auto& phase : saved_phase_) phase = rng_.next_bool() ? 1 : 0;
}

Status solve_formula(const cnf::Formula& formula, cnf::Assignment* model_out) {
  CdclSolver solver;
  solver.add_formula(formula);
  const Status status = solver.solve();
  if (status == Status::kSat && model_out != nullptr) *model_out = solver.model();
  return status;
}

}  // namespace hts::solver
