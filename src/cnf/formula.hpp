#pragma once

// CNF formula container plus the operation accounting the paper uses for its
// Fig. 4 (middle) ops-reduction ablation.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnf/types.hpp"

namespace hts::cnf {

class Formula {
 public:
  Formula() = default;
  explicit Formula(Var n_vars) : n_vars_(n_vars) {}

  [[nodiscard]] Var n_vars() const { return n_vars_; }
  [[nodiscard]] std::size_t n_clauses() const { return clauses_.size(); }
  [[nodiscard]] const std::vector<Clause>& clauses() const { return clauses_; }
  [[nodiscard]] const Clause& clause(std::size_t index) const {
    return clauses_[index];
  }

  /// Grows the variable universe to at least n_vars variables.
  void ensure_vars(Var n_vars) {
    if (n_vars > n_vars_) n_vars_ = n_vars;
  }

  /// Allocates a fresh variable and returns it.
  Var new_var() { return n_vars_++; }

  /// Adds a clause; literals must reference existing variables.
  void add_clause(Clause clause);

  /// Convenience for small clauses.
  void add_clause(std::initializer_list<Lit> lits) { add_clause(Clause(lits)); }

  /// True iff the assignment satisfies every clause. assignment.size() must
  /// be >= n_vars().
  [[nodiscard]] bool satisfied_by(const Assignment& assignment) const;

  /// Total literal occurrences across all clauses.
  [[nodiscard]] std::size_t n_literals() const;

  /// Bit-wise operation count of the flat CNF in 2-input gate equivalents:
  /// (k-1) ORs per k-literal clause, (#clauses - 1) ANDs for the conjunction,
  /// plus one NOT per negative literal (the probabilistic model executes
  /// those as 1-x).  This is the numerator of the paper's Fig. 4 (middle)
  /// reduction rate.
  [[nodiscard]] std::uint64_t op_count_2input() const;

  /// Sampling (projection) set — the variables a DIMACS 'c ind' declaration
  /// marks as the ones whose assignments matter (QuickSampler / UniGen
  /// convention).  Empty = no declaration = every variable.  Today it scopes
  /// the amplifier's flip support; solutions still assign every variable.
  [[nodiscard]] bool has_sampling_set() const { return !sampling_set_.empty(); }
  [[nodiscard]] const std::vector<Var>& sampling_set() const {
    return sampling_set_;
  }
  /// Replaces the sampling set.  Variables are deduplicated and sorted; each
  /// must be < n_vars() (throws std::invalid_argument otherwise).  An empty
  /// vector clears the declaration.
  void set_sampling_set(std::vector<Var> vars);

 private:
  Var n_vars_ = 0;
  std::vector<Clause> clauses_;
  std::vector<Var> sampling_set_;
};

}  // namespace hts::cnf
