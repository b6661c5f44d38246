#include "solver/walksat.hpp"

#include "util/check.hpp"

namespace hts::solver {

using cnf::Lit;
using cnf::Var;

WalkSat::WalkSat(const cnf::Formula& formula, WalkSatConfig config)
    : formula_(&formula), config_(config), rng_(config.seed) {
  occurs_.resize(2 * static_cast<std::size_t>(formula.n_vars()));
  const auto& clauses = formula.clauses();
  for (std::size_t ci = 0; ci < clauses.size(); ++ci) {
    for (const Lit lit : clauses[ci]) occurs_[lit.code()].push_back(ci);
  }
  n_true_.resize(clauses.size());
  unsat_pos_.resize(clauses.size());
}

void WalkSat::rebuild(const cnf::Assignment& assignment) {
  assignment_ = assignment;
  unsat_clauses_.clear();
  std::fill(unsat_pos_.begin(), unsat_pos_.end(), kNotInUnsat);
  const auto& clauses = formula_->clauses();
  for (std::size_t ci = 0; ci < clauses.size(); ++ci) {
    std::uint32_t n_true = 0;
    for (const Lit lit : clauses[ci]) {
      if (lit.value_under(assignment_[lit.var()] != 0)) ++n_true;
    }
    n_true_[ci] = n_true;
    if (n_true == 0) mark_unsat(ci);
  }
}

void WalkSat::mark_unsat(std::size_t clause) {
  if (unsat_pos_[clause] != kNotInUnsat) return;
  unsat_pos_[clause] = unsat_clauses_.size();
  unsat_clauses_.push_back(clause);
}

void WalkSat::mark_sat(std::size_t clause) {
  const std::size_t pos = unsat_pos_[clause];
  if (pos == kNotInUnsat) return;
  const std::size_t last = unsat_clauses_.back();
  unsat_clauses_[pos] = last;
  unsat_pos_[last] = pos;
  unsat_clauses_.pop_back();
  unsat_pos_[clause] = kNotInUnsat;
}

std::size_t WalkSat::break_count(Var v) const {
  // Clauses that would become unsatisfied by flipping v: those where the
  // literal of v currently true is the only true literal.
  const bool current = assignment_[v] != 0;
  const Lit true_lit(v, !current);  // literal satisfied under current value
  std::size_t breaks = 0;
  for (const std::size_t ci : occurs_[true_lit.code()]) {
    if (n_true_[ci] == 1) ++breaks;
  }
  return breaks;
}

void WalkSat::flip(Var v) {
  const bool old_value = assignment_[v] != 0;
  const Lit was_true(v, !old_value);
  const Lit now_true(v, old_value);
  assignment_[v] = old_value ? 0 : 1;
  for (const std::size_t ci : occurs_[was_true.code()]) {
    if (--n_true_[ci] == 0) mark_unsat(ci);
  }
  for (const std::size_t ci : occurs_[now_true.code()]) {
    if (++n_true_[ci] == 1) mark_sat(ci);
  }
  ++total_flips_;
}

std::optional<cnf::Assignment> WalkSat::search(const util::StopToken& stop) {
  cnf::Assignment init(formula_->n_vars());
  for (auto& bit : init) bit = rng_.next_bool() ? 1 : 0;
  rebuild(init);

  for (std::uint64_t step = 0; step < config_.max_flips; ++step) {
    if (unsat_clauses_.empty()) return assignment_;
    if ((step & 1023) == 0 && stop.stop_requested()) {
      return std::nullopt;
    }
    const std::size_t ci =
        unsat_clauses_[rng_.next_below(unsat_clauses_.size())];
    const cnf::Clause& clause = formula_->clause(ci);
    Var chosen = cnf::kInvalidVar;
    if (rng_.next_bool(config_.noise)) {
      chosen = clause[rng_.next_below(clause.size())].var();
    } else {
      std::size_t best_breaks = static_cast<std::size_t>(-1);
      for (const Lit lit : clause) {
        const std::size_t breaks = break_count(lit.var());
        if (breaks < best_breaks) {
          best_breaks = breaks;
          chosen = lit.var();
        }
      }
    }
    flip(chosen);
  }
  return unsat_clauses_.empty() ? std::optional<cnf::Assignment>(assignment_)
                                : std::nullopt;
}

}  // namespace hts::solver
