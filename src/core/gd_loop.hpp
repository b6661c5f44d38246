#pragma once

// Shared gradient-descent sampling loop.
//
// Both the paper's sampler (on the transformed multi-level circuit) and the
// DiffSampler baseline (on the flat CNF relaxation) are "batched GD +
// harden + verify" loops over a circuit; they differ only in the circuit
// handed in.  Keeping one loop guarantees the Table II / Fig. 4 comparisons
// measure the transformation, not incidental implementation differences.

#include <algorithm>

#include "core/sampler.hpp"
#include "circuit/circuit.hpp"
#include "tensor/tensor.hpp"

namespace hts::sampler {

struct GdProblem {
  const circuit::Circuit* circuit = nullptr;
  /// Original CNF variable -> circuit signal (for projecting solutions).
  const std::vector<circuit::SignalId>* var_signal = nullptr;
  /// Circuit input i -> original CNF variable (cnf::kInvalidVar for
  /// auxiliary inputs).  Null means the identity mapping, which holds for
  /// the flat-CNF and direct-circuit samplers; the paper's transform fills
  /// it from transform::Result::input_vars.
  const std::vector<cnf::Var>* input_vars = nullptr;
  /// Sampling/projection set over original variables (a DIMACS 'c ind'
  /// declaration or a per-request override).  Owned by value — the problem
  /// outlives any request buffer it was copied from, so retry replay and
  /// job moves can never dangle.  Empty means every variable.  It scopes
  /// the amplifier's flip support and, when GdLoopConfig::projected_dedup
  /// is on, keys the unique bank on the projection.  Invariant: sorted,
  /// deduplicated, every entry < var_signal->size(); run unvalidated
  /// caller input through normalize_sampling_set() first.
  std::vector<cnf::Var> sampling_set;

  /// Original variable of circuit input i through input_vars (identity when
  /// null); cnf::kInvalidVar for auxiliary inputs.
  [[nodiscard]] cnf::Var input_var(std::size_t i) const {
    return input_vars != nullptr ? (*input_vars)[i] : static_cast<cnf::Var>(i);
  }
};

/// Sorts, deduplicates, and drops out-of-range entries from a
/// caller-supplied sampling set, establishing GdProblem::sampling_set's
/// invariant.  Formula::set_sampling_set already enforces the same shape,
/// so formula-borne sets can be copied verbatim.
[[nodiscard]] std::vector<cnf::Var> normalize_sampling_set(
    std::vector<cnf::Var> set, std::size_t n_vars);

/// A literal-weight request: an extra loss term weight * (p_var - target)^2
/// per batch row, where target is 0 for a negated literal and 1 otherwise.
/// The GD descent then steers variable `var` toward the literal's phase
/// with strength `weight` — including variables outside every constraint
/// (free variables), which plain descent never moves.  Weights on
/// variables that never became circuit inputs are ignored; a variable past
/// the problem's is rejected (validate_config).
struct LitWeight {
  cnf::Var var = 0;
  bool negated = false;
  float weight = 1.0f;
};

/// Flip amplification of harvested solutions — QuickSampler's idea run in
/// the word domain.  Every solution freshly banked by a GD harvest becomes
/// a base: its single-bit flips over the sampling-set inputs, plus pairs of
/// the single flips that stayed satisfying, are packed 64 mutants per word
/// into EvalPlan blocks and validated at harvest speed, with survivors fed
/// to the unique bank in a deterministic order (bases in bank-insertion
/// order, singles in input order, pairs lexicographic).  Amplification
/// never consumes RNG draws, so `enabled = false` (the default) is
/// bit-identical to the pre-amplifier loop.
struct AmplifyConfig {
  bool enabled = false;
  /// Cap on double-flip mutants per base (combinations of its *successful*
  /// single flips, in lexicographic order).  0 skips the double wave.
  std::size_t max_pairs_per_base = 256;
  /// Cap on bases amplified per harvest, taking the first N freshly banked
  /// solutions in bank-insertion order (0 = all of them).
  std::size_t max_bases_per_collect = 0;
};

/// The loop's knobs, declared once.  GradientConfig is this struct, and
/// CircuitSamplerConfig and DiffSamplerConfig derive from it and add only
/// what their front end needs, so a new knob reaches every sampler and the
/// service without a mapping to update.
struct GdLoopConfig {
  /// Rows per round, > 0.  The batch padded to whole 64-row words, times 4
  /// bytes per problem variable, must fit in std::size_t (validate_config
  /// refuses a larger batch), so neither the padded row count nor the
  /// engine's V (one float per circuit input per row; circuit inputs are
  /// problem variables) can wrap.  The harvest's per-row buffers are
  /// smaller than V; the engine's output activations are larger only when
  /// the circuit has more outputs than inputs.
  std::size_t batch = 4096;
  int iterations = 5;           // the paper's setting; must be >= 0
  float learning_rate = 10.0f;  // the paper's setting
  float init_std = 2.0f;
  /// Harden-and-collect after every iteration (the Fig. 3 learning curve
  /// harvests per-iteration; disabling collects only after the last one).
  bool collect_each_iteration = true;
  /// Compile only the constrained cone for GD (ablation; unconstrained
  /// inputs stay at their random initialization either way).
  bool cone_only = false;
  /// Engine kernel scheduling.  kSerial also keeps the harvest on the
  /// calling thread (see RoundRunner).
  tensor::Policy policy = tensor::Policy::kDataParallel;
  /// Stop after this many randomize->iterate rounds (0 = unlimited).  Used
  /// by the Fig. 3 learning-curve harness to observe exactly one round.
  std::uint64_t max_rounds = 0;
  /// Round-parallel workers.  1 (default) runs the exact legacy serial loop
  /// (bit-identical results for a fixed seed); 0 selects the hardware
  /// concurrency; N > 1 runs N workers, each owning a prob::Engine and a
  /// decorrelated RNG stream (util::Rng::stream(seed, worker)), merging
  /// uniques into one shared ShardedUniqueBank.  Rounds are claimed from a
  /// shared counter so max_rounds bounds the *total* across workers.
  std::size_t n_workers = 1;
  /// Solved-row restarts: after each mid-round harvest, rows whose hardened
  /// assignment already satisfied get fresh random V instead of re-descending
  /// a converged basin, turning wasted converged iterations into fresh
  /// unique-solution throughput.  Off reproduces the pre-restart loop bit
  /// for bit (no extra RNG draws).
  bool restart_solved = true;
  /// Plateau restarts: a row whose per-row loss has not improved for this
  /// many consecutive harvest windows is stuck in a basin and gets fresh
  /// random V, like a solved row would.  0 (default) disables — the loop is
  /// then bit-identical to the pre-plateau implementation (no extra RNG
  /// draws).  Trackers reset every round; solved rows are restart_solved's
  /// business and are never counted here.  The flat-CNF landscape of the
  /// DiffSampler baseline is where stuck basins show up most.
  std::size_t restart_plateau = 0;
  /// Run the tape optimizer after compilation (see CompiledCircuit::Options).
  /// Off keeps the raw gate-per-gate tape — note its DCE prunes the same
  /// unconstrained logic cone_only skips, so cone ablations must disable it.
  bool optimize_tape = true;
  /// Flip-amplify freshly banked solutions after every harvest (see
  /// AmplifyConfig; off by default, and off is bit-identical to the
  /// pre-amplifier loop).  The flip support is the sampling set when one is
  /// active, every circuit input otherwise.
  AmplifyConfig amplify;
  /// When a sampling set is active, key the unique bank on the projection
  /// onto that set: two solutions identical over the set count as one
  /// unique, and exactly one full witness per projection is stored and
  /// delivered.  With no sampling set (or with this off) dedup stays over
  /// full input assignments, bit-identical to the pre-projection loop.
  bool projected_dedup = true;
  /// Diversity objective: at the existing restart points, also re-seed rows
  /// whose hardened projection is already banked — they are descending into
  /// an already-collected projected class and would only produce duplicate
  /// projections.  Requires an active sampling set and projected_dedup
  /// (no-op otherwise).  Off (default) consumes no extra RNG draws and is
  /// bit-identical to the pre-diversity loop.
  bool diversity_restart = false;
  /// Per-literal loss weights (see LitWeight).  Empty (default) adds zero
  /// float ops — bit-identical to the unweighted loop; so are entries with
  /// weight 0.  Applied per tile inside the engine, so all scheduling
  /// policies remain bit-identical to each other.
  std::vector<LitWeight> lit_weights;
};

/// What one run of the loop did and what it cost, declared once and read by
/// GdLoopExtras, service::JobStats and the benches.  RoundRunner fills one
/// per session; the round-parallel loop sums its workers' with +=.
struct LoopCounters {
  /// Engine bytes held (Engine::memory_bytes), summed across engines:
  /// memory scales with workers just as V does with batch.
  std::size_t engine_memory_bytes = 0;
  std::uint64_t rounds = 0;
  /// Rows re-seeded by solved-row restarts (0 when the knob is off).
  std::uint64_t restarted_rows = 0;
  /// Rows re-seeded by plateau restarts (0 when restart_plateau is off).
  std::uint64_t plateau_restarted_rows = 0;
  /// Engine iterations executed (each is one full embed/forward/backward/
  /// update sweep over the batch).
  std::uint64_t gd_iterations = 0;
  /// Batch rows validated by the harvest pipeline and the wall-clock spent
  /// doing it, both summed across workers.  Their ratio is the *mean
  /// per-worker* validation throughput (one engine's counterpart of GD
  /// iterations/sec); concurrent workers overlap in time, so it is not an
  /// aggregate fleet rate.
  std::uint64_t rows_validated = 0;
  double harvest_ms = 0.0;
  /// Flip-mutant rows the amplifier generated and validated, the unique
  /// solutions among them, and the wall-clock spent doing it (all zero when
  /// AmplifyConfig::enabled is off).  Candidates are billed separately from
  /// rows_validated so harvest rows/sec keeps measuring the GD pipeline.
  std::uint64_t amplified_candidates = 0;
  std::uint64_t amplified_uniques = 0;
  double amplify_ms = 0.0;
  /// Rows re-seeded by the diversity objective (0 when diversity_restart is
  /// off or no sampling set is active).
  std::uint64_t diversity_restarted_rows = 0;
  /// Engine inputs carrying a literal-weight bias (0 when lit_weights is
  /// empty or nothing resolved onto a circuit input).  A per-engine value:
  /// every engine of one run resolves the same weights, so += keeps it
  /// rather than summing it.
  std::size_t weighted_inputs = 0;

  LoopCounters& operator+=(const LoopCounters& other) {
    engine_memory_bytes += other.engine_memory_bytes;
    rounds += other.rounds;
    restarted_rows += other.restarted_rows;
    plateau_restarted_rows += other.plateau_restarted_rows;
    gd_iterations += other.gd_iterations;
    rows_validated += other.rows_validated;
    harvest_ms += other.harvest_ms;
    amplified_candidates += other.amplified_candidates;
    amplified_uniques += other.amplified_uniques;
    amplify_ms += other.amplify_ms;
    diversity_restarted_rows += other.diversity_restarted_rows;
    weighted_inputs = std::max(weighted_inputs, other.weighted_inputs);
    return *this;
  }
};

struct GdLoopExtras : LoopCounters {
  /// Cumulative unique count observed at iteration i (Fig. 3 left).
  std::vector<std::size_t> uniques_per_iteration;
};

/// True when the bank keys on the sampling-set projection: a set is active
/// and projected_dedup is on.
[[nodiscard]] inline bool projection_active(const GdProblem& problem,
                                            const GdLoopConfig& config) {
  return config.projected_dedup && !problem.sampling_set.empty();
}

/// Bits per unique-bank key for this (problem, config): the sampling-set
/// size under projected dedup, the full circuit input count otherwise.
/// Every bank construction site must agree with the harvester through this
/// one function.
[[nodiscard]] inline std::size_t bank_key_bits(const GdProblem& problem,
                                               const GdLoopConfig& config) {
  return projection_active(problem, config) ? problem.sampling_set.size()
                                            : problem.circuit->n_inputs();
}

/// The one check of a config every entry point runs before it builds
/// anything: run_gd_loop (hence every stand-alone sampler) and the service's
/// admission.  Throws std::invalid_argument, naming the field, for batch 0
/// or a batch whose buffer sizes would overflow (see GdLoopConfig::batch),
/// negative iterations, a non-finite or non-positive learning_rate or
/// init_std, a non-finite lit_weights weight, or a lit_weights variable not
/// below `n_vars` (the problem's var_signal->size(), which for a CNF is its
/// variable count).
void validate_config(const GdLoopConfig& config, std::size_t n_vars);

/// Runs rounds of randomize -> iterate -> harden -> verify -> bank until
/// options.min_solutions unique solutions are collected, config.max_rounds
/// rounds ran, or the stop token fires.  That token is options.stop plus
/// options.budget_ms, counted from when sampling starts: after every engine
/// is built, so allocation stays outside the budget.  It is polled at
/// round and iteration boundaries, at every harvest block and at every
/// amplifier base, so a budget or cancel ends the run within one step that
/// cannot be interrupted, with partial results returned cleanly.  `formula`
/// is only consulted for RunOptions::verify_against_cnf.  Throws
/// std::invalid_argument, before building anything, when the run has no
/// bound (require_run_bound, with config.max_rounds as the round cap) or
/// validate_config rejects `config`.
[[nodiscard]] RunResult run_gd_loop(const GdProblem& problem,
                                    const cnf::Formula& formula,
                                    const RunOptions& options,
                                    const GdLoopConfig& config,
                                    GdLoopExtras* extras = nullptr);

}  // namespace hts::sampler
