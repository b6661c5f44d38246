#pragma once

// Conflict-driven clause learning SAT solver.
//
// The substrate under both CDCL-based baselines (the UniGen-like hash
// sampler and the CMSGen-like randomized sampler) and the test oracle for
// the gradient sampler.  Standard architecture: two-watched-literal
// propagation, first-UIP conflict analysis with recursive clause
// minimization, EVSIDS decision scores, phase saving, Luby restarts, and
// activity-driven learned-clause reduction.
//
// Randomization hooks (random polarities, random decision fraction) exist
// because CMSGen's whole design is "a CDCL solver randomized into a
// sampler"; they default off for plain solving.

#include <cstdint>
#include <vector>

#include "cnf/formula.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace hts::solver {

enum class Status : std::uint8_t { kSat, kUnsat, kUnknown };

struct CdclConfig {
  /// Fraction of decisions taken uniformly at random (CMSGen-style
  /// diversification).
  double random_decision_freq = 0.0;
  enum class Polarity : std::uint8_t { kSaved, kFalse, kTrue, kRandom };
  Polarity polarity = Polarity::kSaved;
  std::uint64_t seed = 0x5eed;
  /// <= 0 disables the conflict budget.
  std::int64_t conflict_budget = -1;
};

class CdclSolver {
 public:
  explicit CdclSolver(const CdclConfig& config = {});

  /// Loads every clause of the formula (variables auto-registered).
  void add_formula(const cnf::Formula& formula);

  void ensure_vars(cnf::Var n_vars);
  /// Returns false if the clause is trivially conflicting at level 0 (the
  /// instance became UNSAT).
  bool add_clause(const cnf::Clause& clause);

  [[nodiscard]] cnf::Var n_vars() const { return static_cast<cnf::Var>(assigns_.size()); }

  /// Solves under optional assumptions.  kUnknown only when the conflict
  /// budget runs out or `stop` fires (polled before every decision).
  Status solve(const std::vector<cnf::Lit>& assumptions = {},
               const util::StopToken& stop = {});

  /// Model of the last kSat answer (complete over all registered vars).
  [[nodiscard]] const cnf::Assignment& model() const { return model_; }

  /// Blocks the last model (over the given variables; empty = all), forcing
  /// the next solve to find a different one.  Returns false if the instance
  /// became UNSAT (enumeration exhausted).
  bool block_model(const std::vector<cnf::Var>& projection = {});

  /// Re-randomizes decision order and polarities (between sampler calls).
  void reshuffle(std::uint64_t seed);

  // --- statistics ----------------------------------------------------------
  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    std::uint64_t removed = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = static_cast<ClauseRef>(-1);
  static constexpr ClauseRef kDecisionReason = static_cast<ClauseRef>(-2);

  struct ClauseData {
    std::vector<cnf::Lit> lits;
    double activity = 0.0;
    std::uint32_t lbd = 0;
    bool learned = false;
    bool deleted = false;
  };

  struct Watcher {
    ClauseRef clause;
    cnf::Lit blocker;
  };

  // assignment access
  [[nodiscard]] cnf::LBool value(cnf::Var v) const { return assigns_[v]; }
  [[nodiscard]] cnf::LBool value(cnf::Lit l) const {
    const cnf::LBool v = assigns_[l.var()];
    if (v == cnf::LBool::kUndef) return cnf::LBool::kUndef;
    const bool b = (v == cnf::LBool::kTrue) != l.negated();
    return b ? cnf::LBool::kTrue : cnf::LBool::kFalse;
  }

  void enqueue(cnf::Lit lit, ClauseRef reason);
  [[nodiscard]] ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<cnf::Lit>& learnt_out,
               std::uint32_t& backtrack_level, std::uint32_t& lbd_out);
  [[nodiscard]] bool lit_redundant(cnf::Lit lit, std::uint32_t abstract_levels);
  void backtrack(std::uint32_t level);
  [[nodiscard]] cnf::Lit pick_branch();
  void bump_var(cnf::Var v);
  void bump_clause(ClauseData& clause);
  void reduce_learned();
  void attach(ClauseRef ref);
  [[nodiscard]] std::uint64_t luby(std::uint64_t i) const;
  void rebuild_order_heap();

  // order "heap": simple activity-sorted lazy structure
  void heap_insert(cnf::Var v);
  [[nodiscard]] cnf::Var heap_pop_max();

  CdclConfig config_;
  util::Rng rng_;

  std::vector<ClauseData> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code

  std::vector<cnf::LBool> assigns_;
  std::vector<std::uint8_t> saved_phase_;
  std::vector<std::uint32_t> level_;
  std::vector<ClauseRef> reason_;
  std::vector<cnf::Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<cnf::Var> order_;       // binary heap by activity
  std::vector<std::int32_t> heap_pos_;  // -1 when absent

  std::vector<std::uint8_t> seen_;  // scratch for analyze
  std::vector<cnf::Var> to_clear_;  // vars whose seen_ bit analyze must reset
  cnf::Assignment model_;
  Stats stats_;
  bool ok_ = true;  // false once UNSAT at level 0
};

/// Convenience: one-shot satisfiability check.
[[nodiscard]] Status solve_formula(const cnf::Formula& formula,
                                   cnf::Assignment* model_out = nullptr);

}  // namespace hts::solver
