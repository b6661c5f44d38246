#pragma once

// Declarations shared by the benchmark's translation units: the parsed
// command line, the workload definitions, and the result every run returns.

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/families.hpp"
#include "core/gradient_sampler.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// One reported metric: its value, unit, and a note giving the sample count
/// or the base of a ratio.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// What one run reports: the metrics plus the output checks.  `attempted`
/// counts checked outputs (re-checked solutions, submitted requests, replica
/// comparisons); `failed` those that failed, each with a line in `errors`.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    metrics.push_back({name, value, unit, note});
  }
  /// Counts a failure; only the first few reasons are kept for printing.
  void fail(const std::string& reason) {
    ++failed;
    if (errors.size() < 10) errors.push_back(reason);
  }
};

/// A stand-alone workload: GradientSampler::run at its defaults over named
/// benchgen instances, `rounds` GD rounds per call.
struct StandaloneSpec {
  std::string name;
  std::vector<std::string> instances;
  std::uint64_t rounds = 1;
};

/// The workloads by name; the service workload has no StandaloneSpec.
[[nodiscard]] std::vector<StandaloneSpec> standalone_specs();

/// The stand-alone batch heuristic (the repo's bench pick_batch): big
/// batches for small circuits, smaller for giants.
[[nodiscard]] std::size_t default_batch(std::size_t n_vars);

/// GradientSampler configuration of a stand-alone workload for one instance.
[[nodiscard]] hts::sampler::GradientConfig standalone_config(
    const StandaloneSpec& spec, const hts::benchgen::Instance& instance);

/// Per-call sampler seed derived from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Options of stand-alone call `index`: no target, no deadline (the round
/// count is the only stop), seed derived from the workload seed.
[[nodiscard]] hts::sampler::RunOptions standalone_options(std::uint64_t seed,
                                                          std::uint64_t index);

/// Generates the workload's instances and makes one untimed call per
/// instance: spawns the pool threads, warms the allocator, and re-checks
/// the call's stored solutions against the CNF into `out`.
[[nodiscard]] std::vector<hts::benchgen::Instance> warm_up(const StandaloneSpec& spec,
                                                           Outcome& out);

/// Peak resident set of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Re-checks assignments against the original CNF, outside any timed
/// interval; counts each into `outcome`.
void recheck(const hts::cnf::Formula& formula,
             const std::vector<hts::cnf::Assignment>& solutions,
             const std::string& what, Outcome& outcome);

/// Set-up layer costs of one instance: the calls run_gd_loop makes before
/// its sampling clock starts, each timed on its own.
struct SetupLayers {
  double transform_ms = 0.0;
  double circuit_ops = 0.0;
  double compile_ms = 0.0;
  double evalplan_ms = 0.0;
  double engine_alloc_ms = 0.0;
  double engine_mb = 0.0;
};

/// Builds transform -> CompiledCircuit -> EvalPlan -> Engine for one
/// instance under `config` and times each step.
[[nodiscard]] SetupLayers time_setup_layers(const hts::benchgen::Instance& instance,
                                            const hts::sampler::GdLoopConfig& config);

/// Adds the per-instance means of the set-up layer metrics.
void add_setup_layers(const std::vector<SetupLayers>& setups, Outcome& out);

// End-to-end runs (tracing off).
[[nodiscard]] Outcome run_standalone(const Args& args, const StandaloneSpec& spec);
[[nodiscard]] Outcome run_service(const Args& args, std::size_t nproc);

// Traced runs (per-layer metrics).
[[nodiscard]] Outcome trace_standalone(const Args& args, const StandaloneSpec& spec);
[[nodiscard]] Outcome trace_service(const Args& args, std::size_t nproc);

}  // namespace perfbench
