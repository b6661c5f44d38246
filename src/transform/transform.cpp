#include "transform/transform.hpp"

#include <algorithm>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "circuit/expr_import.hpp"
#include "expr/expr.hpp"
#include "util/stamp_set.hpp"
#include "util/timer.hpp"

namespace hts::transform {

namespace {

using cnf::Clause;
using cnf::Lit;
using cnf::Var;
using expr::ExprId;

/// Pending-block cap: blocks larger than this flush as an auxiliary
/// constraint (keeps worst-case cost linear; Tseitin signatures are tiny).
constexpr std::size_t kMaxBlockClauses = 64;

/// One recovered definition, in discovery order.
struct Definition {
  enum class Kind : std::uint8_t {
    kGate,        // var := expression (intermediate variable)
    kConstant,    // var pinned to target (primary output)
    kAuxOutput,   // auxiliary output := expression, constrained to 1
  };
  Kind kind;
  Var var = cnf::kInvalidVar;  // unused for kAuxOutput
  ExprId expression = expr::kNoExpr;
  bool target = true;  // for kConstant
};

class Extractor {
 public:
  explicit Extractor(const cnf::Formula& formula)
      : formula_(formula), roles_(formula.n_vars(), VarRole::kUnseen) {
    block_vars_.grow(formula.n_vars());
    listed_.grow(formula.n_vars());
  }

  Result run() {
    util::Timer timer;
    const auto& clauses = formula_.clauses();
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      block_.push_back(i);
      for (const Lit lit : clauses[i]) block_vars_.insert(lit.var());
      try_extract();
      const bool last = (i + 1 == clauses.size());
      if (!block_.empty() &&
          (last || !shares_variable(clauses[i + 1]) ||
           block_.size() >= kMaxBlockClauses)) {
        flush_block();
      }
    }
    Result result = build_circuit();
    result.stats.transform_ms = timer.milliseconds();
    result.stats.n_gate_definitions = n_gate_definitions_;
    result.stats.n_const_promotions = n_const_promotions_;
    result.stats.n_flushed_blocks = n_flushed_blocks_;
    result.stats.cnf_ops = formula_.op_count_2input();
    result.stats.circuit_ops = result.circuit.op_count_2input();
    result.stats.n_primary_inputs = result.circuit.n_inputs();
    result.stats.n_primary_outputs = result.circuit.outputs().size();
    result.proven_unsat = proven_unsat_;
    return result;
  }

 private:
  // --- candidate search ----------------------------------------------------

  /// True iff clause shares a variable with the pending block.
  [[nodiscard]] bool shares_variable(const Clause& clause) const {
    for (const Lit lit : clause) {
      if (block_vars_.contains(lit.var())) return true;
    }
    return false;
  }

  void clear_block() {
    block_.clear();
    block_vars_.clear();
  }

  /// Variables of the block in order of first appearance.
  [[nodiscard]] std::vector<Var> block_variables() {
    std::vector<Var> vars;
    listed_.clear();
    for (const std::size_t ci : block_) {
      for (const Lit lit : formula_.clause(ci)) {
        if (listed_.insert(lit.var())) vars.push_back(lit.var());
      }
    }
    return vars;
  }

  /// FindBooleanExpression(v, SC): conjunction over block clauses containing
  /// `probe` (v or ~v per `negated_form`) of the OR of the remaining
  /// literals.  Returns kNoExpr if some clause lacks v entirely (the block
  /// cannot define v).
  [[nodiscard]] ExprId derive(Var v, bool negated_form) {
    std::vector<ExprId> conjuncts;
    for (const std::size_t ci : block_) {
      const Clause& clause = formula_.clause(ci);
      bool mentions = false;
      bool matches_probe = false;
      std::vector<ExprId> disjuncts;
      for (const Lit lit : clause) {
        if (lit.var() == v) {
          mentions = true;
          if (lit.negated() == negated_form) matches_probe = true;
          continue;
        }
        const ExprId leaf = exprs_.var(lit.var());
        disjuncts.push_back(lit.negated() ? exprs_.mk_not(leaf) : leaf);
      }
      if (!mentions) return expr::kNoExpr;
      if (!matches_probe) continue;  // clause satisfied when v has probe value
      conjuncts.push_back(exprs_.mk_or(std::move(disjuncts)));
    }
    return exprs_.mk_and(std::move(conjuncts));
  }

  void try_extract() {
    for (const Var v : block_variables()) {
      const VarRole role = roles_[v];
      if (role == VarRole::kPrimaryInput || role == VarRole::kPrimaryOutput) {
        continue;
      }
      const ExprId f = derive(v, /*negated_form=*/true);
      if (f == expr::kNoExpr) continue;
      const ExprId g = derive(v, /*negated_form=*/false);
      HTS_DCHECK(g != expr::kNoExpr);
      bool complement = false;
      try {
        complement = exprs_.complementary(f, g);
      } catch (const bdd::CapacityError&) {
        complement = false;  // too large to decide: treat as not-a-definition
      }
      if (!complement) continue;

      const ExprId simplified = exprs_.simplify(f);
      if (exprs_.is_const(simplified)) {
        // Constant constraint: v is a primary output pinned to f's value.
        definitions_.push_back(Definition{Definition::Kind::kConstant, v,
                                          simplified,
                                          simplified == exprs_.const1()});
        roles_[v] = VarRole::kPrimaryOutput;
        ++n_const_promotions_;
      } else {
        if (role == VarRole::kIntermediate) {
          // Re-definition of an already-driven variable is not allowed by
          // the acyclicity rule; leave the block to the flush path.
          continue;
        }
        definitions_.push_back(
            Definition{Definition::Kind::kGate, v, simplified, true});
        roles_[v] = VarRole::kIntermediate;
        for (const std::uint32_t w : exprs_.support(simplified)) {
          if (roles_[w] == VarRole::kUnseen) roles_[w] = VarRole::kPrimaryInput;
        }
        ++n_gate_definitions_;
      }
      clear_block();
      return;
    }
  }

  // --- under-specified blocks ----------------------------------------------

  void flush_block() {
    std::vector<ExprId> conjuncts;
    conjuncts.reserve(block_.size());
    for (const std::size_t ci : block_) {
      std::vector<ExprId> disjuncts;
      for (const Lit lit : formula_.clause(ci)) {
        const ExprId leaf = exprs_.var(lit.var());
        disjuncts.push_back(lit.negated() ? exprs_.mk_not(leaf) : leaf);
      }
      conjuncts.push_back(exprs_.mk_or(std::move(disjuncts)));
    }
    ExprId conj = exprs_.mk_and(std::move(conjuncts));
    conj = exprs_.simplify(conj);
    clear_block();
    ++n_flushed_blocks_;

    if (conj == exprs_.const1()) return;  // tautological block
    if (conj == exprs_.const0()) {
      proven_unsat_ = true;
      return;
    }
    for (const std::uint32_t w : exprs_.support(conj)) {
      if (roles_[w] == VarRole::kUnseen) roles_[w] = VarRole::kPrimaryInput;
    }
    definitions_.push_back(
        Definition{Definition::Kind::kAuxOutput, cnf::kInvalidVar, conj, true});
  }

  // --- circuit construction -------------------------------------------------

  Result build_circuit() {
    Result result;
    result.roles = roles_;
    result.var_signal.assign(formula_.n_vars(), circuit::kNoSignal);

    std::unordered_map<std::uint32_t, circuit::SignalId> var_to_signal;
    std::unordered_map<ExprId, circuit::SignalId> memo;

    auto input_signal_of = [&](Var v) {
      circuit::SignalId& slot = result.var_signal[v];
      if (slot == circuit::kNoSignal) {
        slot = result.circuit.add_input("x" + std::to_string(v + 1));
        result.input_vars.push_back(v);
        var_to_signal[v] = slot;
      }
      return slot;
    };
    auto bind_name = [&](circuit::SignalId signal, const std::string& name) {
      // Collapsed definitions (e.g. buffer chains) may alias one signal to
      // several variables; keep all names, like the paper's Fig. 1(b) nodes
      // labeled "x2, x3, x4".
      const std::string& existing = result.circuit.name(signal);
      result.circuit.set_name(signal,
                              existing.empty() ? name : existing + "," + name);
    };

    // Inputs must exist before the expressions that read them; walk the
    // definitions in discovery order, create input signals for every
    // still-unbound support variable, then lower the expression.
    std::size_t aux_counter = 0;
    for (const Definition& def : definitions_) {
      for (const std::uint32_t w : exprs_.support(def.expression)) {
        if (result.var_signal[w] == circuit::kNoSignal) input_signal_of(w);
      }
      switch (def.kind) {
        case Definition::Kind::kGate: {
          const circuit::SignalId signal = circuit::lower_expr(
              result.circuit, exprs_, def.expression, var_to_signal, memo);
          bind_name(signal, "x" + std::to_string(def.var + 1));
          result.var_signal[def.var] = signal;
          var_to_signal[def.var] = signal;
          break;
        }
        case Definition::Kind::kConstant:
          result.circuit.add_output(input_signal_of(def.var), def.target);
          break;
        case Definition::Kind::kAuxOutput: {
          const circuit::SignalId signal = circuit::lower_expr(
              result.circuit, exprs_, def.expression, var_to_signal, memo);
          bind_name(signal, "aux" + std::to_string(aux_counter++));
          result.circuit.add_output(signal, true);
          break;
        }
      }
    }

    // Any variable never mentioned by a definition is free: give it an input
    // signal so assignments project 1:1.
    for (Var v = 0; v < formula_.n_vars(); ++v) {
      if (result.var_signal[v] == circuit::kNoSignal) {
        input_signal_of(v);
        if (result.roles[v] == VarRole::kUnseen) {
          result.roles[v] = VarRole::kPrimaryInput;
        }
      }
    }
    return result;
  }

  const cnf::Formula& formula_;
  expr::Manager exprs_;
  std::vector<VarRole> roles_;
  std::vector<std::size_t> block_;  // pending clause indices (SC)
  util::StampSet block_vars_;       // variables of SC
  util::StampSet listed_;           // seen set of block_variables()
  std::vector<Definition> definitions_;
  std::size_t n_gate_definitions_ = 0;
  std::size_t n_const_promotions_ = 0;
  std::size_t n_flushed_blocks_ = 0;
  bool proven_unsat_ = false;
};

}  // namespace

cnf::Assignment Result::project(const std::vector<std::uint8_t>& signal_values) const {
  cnf::Assignment assignment(var_signal.size(), 0);
  for (Var v = 0; v < var_signal.size(); ++v) {
    HTS_DCHECK(var_signal[v] != circuit::kNoSignal);
    assignment[v] = signal_values[var_signal[v]];
  }
  return assignment;
}

Result transform_cnf(const cnf::Formula& formula, const Config&) {
  Extractor extractor(formula);
  return extractor.run();
}

}  // namespace hts::transform
