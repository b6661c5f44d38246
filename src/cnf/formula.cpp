#include "cnf/formula.hpp"

#include <algorithm>
#include <stdexcept>

namespace hts::cnf {

void Formula::add_clause(Clause clause) {
  for (const Lit lit : clause) {
    HTS_CHECK_MSG(lit.var() < n_vars_, "clause literal references unknown variable");
  }
  clauses_.push_back(std::move(clause));
}

bool Formula::satisfied_by(const Assignment& assignment) const {
  HTS_CHECK(assignment.size() >= n_vars_);
  return std::all_of(clauses_.begin(), clauses_.end(), [&](const Clause& clause) {
    return std::any_of(clause.begin(), clause.end(), [&](const Lit lit) {
      return lit.value_under(assignment[lit.var()] != 0);
    });
  });
}

std::size_t Formula::n_literals() const {
  std::size_t total = 0;
  for (const Clause& clause : clauses_) total += clause.size();
  return total;
}

std::uint64_t Formula::op_count_2input() const {
  std::uint64_t ops = 0;
  for (const Clause& clause : clauses_) {
    if (clause.size() > 1) ops += clause.size() - 1;  // OR tree
    for (const Lit lit : clause) {
      if (lit.negated()) ++ops;  // NOT
    }
  }
  if (!clauses_.empty()) ops += clauses_.size() - 1;  // AND tree
  return ops;
}

void Formula::set_sampling_set(std::vector<Var> vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  for (const Var v : vars) {
    if (v >= n_vars_) {
      throw std::invalid_argument(
          "sampling set references variable beyond n_vars");
    }
  }
  sampling_set_ = std::move(vars);
}

}  // namespace hts::cnf
