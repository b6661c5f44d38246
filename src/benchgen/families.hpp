#pragma once

// Synthetic reproductions of the four benchmark families the paper samples
// from (Meel's public model-counting/sampling suite).  The originals are
// Tseitin-encoded circuit CNFs; we rebuild each family's circuit *structure*
// and Tseitin-encode it ourselves, matching the published instance
// statistics (PI/PO/variable/clause counts of Table II) so the
// transformation and samplers exercise the same code paths.
//
// Every instance carries a witness: output targets are fixed by evaluating
// the circuit on a random input vector, so instances are satisfiable by
// construction and the witness doubles as a test oracle.
//
// Families:
//   or-k-a-b-UC-c  : OR/AND cone networks over k inputs, several outputs,
//                    plus dangling unconstrained chains ("UC").
//   w-10-i-q       : long buffer/inverter chains with embedded 2:1 MUXes
//                    (the paper's Eq. 5 comes from 75-10-1-q), one output.
//   s15850a_x_y    : ISCAS'89-scale random multi-level netlist, 600 inputs,
//                    x constrained outputs.
//   Prod-n         : n conjoined constraint modules over shared+local
//                    inputs, wide gates, 2 outputs (product-configuration
//                    style).

#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"
#include "cnf/formula.hpp"

namespace hts::benchgen {

struct Instance {
  std::string name;
  std::string family;  // "or" | "q" | "s15850a" | "prod"
  /// Ground-truth circuit (pre-Tseitin) — what the transformation should
  /// approximately recover.
  circuit::Circuit circuit;
  /// Tseitin encoding of `circuit` including output-target unit clauses.
  cnf::Formula formula;
  /// circuit signal -> formula variable.
  std::vector<cnf::Var> signal_var;
  /// A satisfying assignment of `formula` (complete witness).
  cnf::Assignment witness;
};

struct GenOptions {
  /// Linear size multiplier for the two big families (s15850a, Prod); 1.0
  /// reproduces the paper's instance sizes.  Must be finite and positive,
  /// and every scaled count must fit a std::size_t: each builder throws
  /// std::invalid_argument otherwise.
  double scale = 1.0;
  /// Extra entropy mixed into the name-derived seed.
  std::uint64_t seed_mix = 0;
};

/// Builds an instance from its paper-style name (see family grammar above).
/// Throws std::invalid_argument for unrecognized names and bad options.
[[nodiscard]] Instance make_instance(const std::string& name,
                                     const GenOptions& options = {});

// Family builders (exposed for direct use in tests).
[[nodiscard]] Instance make_or_instance(std::size_t n_inputs, std::size_t variant_a,
                                        std::size_t variant_b, std::size_t variant_c,
                                        const GenOptions& options = {});
[[nodiscard]] Instance make_q_instance(std::size_t width, std::size_t variant,
                                       const GenOptions& options = {});
[[nodiscard]] Instance make_s15850_instance(std::size_t n_outputs, std::size_t variant,
                                            const GenOptions& options = {});
[[nodiscard]] Instance make_prod_instance(std::size_t n_modules,
                                          const GenOptions& options = {});

}  // namespace hts::benchgen
