#pragma once

// Direct circuit sampling — the paper's closing suggestion implemented:
// "SAT applications in high-level logical formats could be directly
// transformed into a multi-level, multi-output Boolean function", skipping
// the CNF round trip entirely (the DEMOTIC direction for CRV workloads).
//
// CircuitSampler runs the same batched GD loop as GradientSampler but takes
// a circuit::Circuit with output constraints as the problem statement.
// Solutions are assignments to the circuit's primary inputs (optionally
// extended to all signals).

#include "circuit/circuit.hpp"
#include "core/gd_loop.hpp"
#include "core/sampler.hpp"

namespace hts::sampler {

/// Every loop knob (see GdLoopConfig) plus the circuit path's sampling set.
struct CircuitSamplerConfig : GdLoopConfig {
  /// Sampling/projection set over circuit input *positions* (the circuit
  /// path's counterpart of a CNF 'c ind' set; input i is pseudo-variable
  /// i).  Empty means every input.  Scopes the amplifier's flip support
  /// and, with projected_dedup, keys unique solutions on the projection.
  /// Unsorted/duplicate/out-of-range entries are normalized away.
  std::vector<cnf::Var> sampling_set;
};

class CircuitSampler {
 public:
  /// The circuit must already carry its output constraints
  /// (circuit.add_output).  The reference is held; it must outlive the
  /// sampler.
  explicit CircuitSampler(const circuit::Circuit& circuit,
                          CircuitSamplerConfig config = {});

  /// Samples input assignments meeting every output constraint.  Solutions
  /// in RunResult::solutions are indexed by circuit input position (i.e.
  /// solutions[k][i] is the bit of circuit.inputs()[i]).
  [[nodiscard]] RunResult run(const RunOptions& options);

  /// Learning-curve / memory metrics of the most recent run.
  [[nodiscard]] const GdLoopExtras& extras() const { return extras_; }

 private:
  const circuit::Circuit* circuit_;
  CircuitSamplerConfig config_;
  /// Identity "projection": input i <-> pseudo-variable i.
  std::vector<circuit::SignalId> input_signals_;
  cnf::Formula empty_formula_;
  GdLoopExtras extras_;
};

}  // namespace hts::sampler
