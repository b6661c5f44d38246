#pragma once

// Algorithm 1 from the paper: transforms a CNF into an equisatisfiable
// multi-level, multi-output Boolean function (a circuit::Circuit).
//
// Sketch: clauses are buffered into a sub-clause block SC.  After each
// append, every variable v of SC that is not yet classified is tried as the
// block's output: f is the conjunction over clauses containing ~v of the OR
// of their remaining literals (the function forced on v when v=1), g the
// same over clauses containing v.  When every clause of SC mentions v and
// f == ~g exactly, the block's conjunction is precisely the Tseitin
// definition v <-> f, so v becomes an intermediate variable defined by
// simplify(f); a constant f instead promotes v to a primary output
// constrained to that constant.  Blocks that never resolve (under-specified
// constraints, e.g. a bare (x1 | x2) with the output variable eliminated)
// are flushed: the block's conjunction becomes an auxiliary output gate
// constrained to 1.  Every clause is consumed by exactly one of these three
// exact rules, which is what makes the result equisatisfiable and lets
// solutions map 1:1 back onto original variables.
//
// The resulting circuit has "constrained paths" (cones of the constrained
// outputs, which gradient descent must solve) and "unconstrained paths"
// (everything else; any random input works) — see Fig. 1 of the paper.
//
// Cost: one expr::Manager per call holds every expression, so
// simplify's Quine-McCluskey runs once per distinct truth table (Prod-8:
// 30 tables over 28,816 calls), and the exact checks reuse the Manager's
// traversal arrays.  The call is single-threaded; concurrent calls share
// nothing.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cnf/formula.hpp"

namespace hts::transform {

enum class VarRole : std::uint8_t {
  kUnseen = 0,
  kPrimaryInput,
  kIntermediate,
  kPrimaryOutput,
};

/// Empty: Algorithm 1 has no settings (the block cap is a constant in
/// transform.cpp, the resynthesis bound one in expr.cpp).  It stays only
/// because the benchmark's replica (perfbench/src/layers.cpp) constructs
/// `transform::Config{}`; it goes when that replica does.
struct Config {};

struct Stats {
  double transform_ms = 0.0;
  std::size_t n_gate_definitions = 0;   // recovered v <-> f definitions
  std::size_t n_const_promotions = 0;   // variables pinned to constants
  std::size_t n_flushed_blocks = 0;     // under-specified blocks
  std::size_t n_primary_inputs = 0;     // circuit inputs after extraction
  std::size_t n_primary_outputs = 0;    // constrained outputs
  std::uint64_t cnf_ops = 0;            // flat-CNF 2-input-equivalent ops
  std::uint64_t circuit_ops = 0;        // extracted-circuit ops
  /// The paper's Fig. 4 (middle) metric: cnf_ops / circuit_ops.
  [[nodiscard]] double ops_reduction() const {
    return circuit_ops == 0 ? 0.0
                            : static_cast<double>(cnf_ops) /
                                  static_cast<double>(circuit_ops);
  }
};

struct Result {
  circuit::Circuit circuit;

  /// Original CNF variable -> circuit signal carrying its value.  Every
  /// original variable has a signal (free variables become inputs).
  std::vector<circuit::SignalId> var_signal;

  /// Role assigned to each original variable by Algorithm 1.
  std::vector<VarRole> roles;

  /// circuit.inputs()[i] corresponds to original variable input_vars[i];
  /// cnf::kInvalidVar for auxiliary inputs (there are none today, kept for
  /// forward compatibility).
  std::vector<cnf::Var> input_vars;

  /// True if a flushed block simplified to constant false (formula UNSAT).
  bool proven_unsat = false;

  Stats stats;

  /// Projects circuit signal values back to an assignment over the original
  /// CNF variables.
  [[nodiscard]] cnf::Assignment project(
      const std::vector<std::uint8_t>& signal_values) const;

  [[nodiscard]] std::size_t n_primary_inputs() const {
    return circuit.n_inputs();
  }
  [[nodiscard]] std::size_t n_primary_outputs() const {
    return circuit.outputs().size();
  }
};

/// Runs Algorithm 1 on the formula.  The second parameter is unused (see
/// Config).
[[nodiscard]] Result transform_cnf(const cnf::Formula& formula,
                                   const Config& = {});

}  // namespace hts::transform
