// Stand-alone workloads (wide, deep): GradientSampler::run
// called back to back on fixed paper instances, a fixed round count per
// call, for the run's measuring time.

#include <sys/resource.h>

#include "bench.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace hts;

namespace {

/// Solutions per instance stored by the warm-up call and re-checked against
/// the CNF after it (storing them changes the harvest path, so measured
/// calls store none).
constexpr std::size_t kRecheckSolutions = 2000;
/// A run measures at least this many cycles (one call per instance each),
/// however long they take.
constexpr std::size_t kMinCycles = 3;

/// Sampling-clock time of the first progress checkpoint holding a unique
/// solution (the iteration-0 collect is not a checkpoint).
double first_unique_ms(const sampler::RunResult& result) {
  for (const sampler::ProgressPoint& point : result.progress) {
    if (point.n_unique > 0) return point.elapsed_ms;
  }
  return result.elapsed_ms;
}

}  // namespace

std::vector<StandaloneSpec> standalone_specs() {
  // Instances are the paper's Table II names at seed_mix 0, the same for
  // every --seed: redrawing them per seed moves unique yield 2-5x, which
  // would swamp any regression bound.  The seed drives the samplers.
  return {
      {"wide", {"or-100-20-8-UC-10", "90-10-10-q"}, 2},
      {"deep", {"s15850a_15_7", "Prod-8"}, 1},
  };
}

std::size_t default_batch(std::size_t n_vars) {
  if (n_vars < 1000) return 65536;
  if (n_vars < 20000) return 8192;
  return 2048;
}

sampler::GradientConfig standalone_config(const StandaloneSpec& spec,
                                          const benchgen::Instance& instance) {
  sampler::GradientConfig config;  // kDataParallel, one worker
  config.batch = default_batch(instance.formula.n_vars());
  config.max_rounds = spec.rounds;
  return config;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return util::Rng::stream(seed, index).next_u64();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void recheck(const cnf::Formula& formula,
             const std::vector<cnf::Assignment>& solutions,
             const std::string& what, Outcome& outcome) {
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    ++outcome.attempted;
    if (!formula.satisfied_by(solutions[i])) {
      outcome.fail(what + ": solution #" + std::to_string(i) + " violates the CNF");
    }
  }
}

sampler::RunOptions standalone_options(std::uint64_t seed, std::uint64_t index) {
  sampler::RunOptions options;
  options.min_solutions = 0;  // the round count is the only stop
  options.budget_ms = 0.0;
  options.seed = derive_seed(seed, index);
  return options;
}

std::vector<benchgen::Instance> warm_up(const StandaloneSpec& spec, Outcome& out) {
  std::vector<benchgen::Instance> instances;
  for (const std::string& name : spec.instances) {
    instances.push_back(benchgen::make_instance(name));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    // A fixed seed, not --seed: this first call's bank growth sets the
    // process's peak RSS, and a per-seed draw made peak_rss_mb bimodal
    // across seeds (218 or 245 MB on `wide`).
    sampler::RunOptions options = standalone_options(0, i);
    options.store_limit = kRecheckSolutions;
    sampler::GradientSampler sampler(standalone_config(spec, instances[i]));
    const sampler::RunResult result = sampler.run(instances[i].formula, options);
    ++out.attempted;
    if (result.n_unique == 0) out.fail(instances[i].name + ": warm-up found no solution");
    recheck(instances[i].formula, result.solutions, instances[i].name, out);
  }
  return instances;
}

Outcome run_standalone(const Args& args, const StandaloneSpec& spec) {
  Outcome out;
  const std::vector<benchgen::Instance> instances = warm_up(spec, out);

  struct Cycle {
    double uniques = 0.0;
    double sampling_ms = 0.0;
    double setup_ms = 0.0;
  };
  std::vector<Cycle> cycles;
  std::vector<std::vector<double>> request_ms(instances.size());  // per instance
  std::vector<std::vector<double>> first_ms(instances.size());
  std::uint64_t index = 1000;
  const util::Timer phase;
  while (true) {
    const double spent = phase.seconds();
    if (cycles.size() >= kMinCycles &&
        spent + spent / static_cast<double>(cycles.size()) > args.seconds) {
      break;
    }
    Cycle cycle;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const benchgen::Instance& instance = instances[i];
      const sampler::RunOptions options = standalone_options(args.seed, index++);
      sampler::GradientSampler sampler(standalone_config(spec, instance));
      const util::Timer call;
      const sampler::RunResult result = sampler.run(instance.formula, options);
      const double wall_ms = call.milliseconds();
      // Everything outside the sampling clock: transform, tape compile,
      // eval plan, engine allocation, and the release of bank and engines.
      const double setup_ms = wall_ms - result.elapsed_ms;
      cycle.uniques += static_cast<double>(result.n_unique);
      cycle.sampling_ms += result.elapsed_ms;
      cycle.setup_ms += setup_ms;
      request_ms[i].push_back(wall_ms);
      // On the sampling clock: wall - elapsed_ms mixes set-up before the
      // first unique with the release of bank and engines after the last,
      // and the release is most of it on `wide`.
      first_ms[i].push_back(first_unique_ms(result));
      ++out.attempted;
      if (result.n_unique == 0) out.fail(instance.name + ": a measured call found no solution");
    }
    cycles.push_back(cycle);
  }
  const double phase_s = phase.seconds();

  // Throughput is the median over cycles, not the run's pooled ratio: a
  // shared host slows in phases, and pooling weights the slow cycles by
  // the extra time they take.
  std::vector<double> cycle_rates;
  std::vector<double> cycle_setups;
  Ratio pooled;
  std::string per_cycle;
  for (const Cycle& cycle : cycles) {
    cycle_rates.push_back(rate(cycle.uniques, cycle.sampling_ms / 1e3).value());
    cycle_setups.push_back(cycle.setup_ms / 1e3);
    pooled.num += cycle.uniques;
    pooled.den += cycle.sampling_ms / 1e3;
    per_cycle += format(" %.0f", cycle_rates.back());
  }
  const auto n_calls = static_cast<double>(cycles.size() * instances.size());
  out.add("uniques_per_s", median(cycle_rates), "1/s",
          "median of cycles' uniques/sampling s; pooled " + pooled.str() + "; per cycle" +
              per_cycle);
  out.add("setup_s", median(cycle_setups), "s",
          format("median of %zu cycles, each one call per instance", cycles.size()));
  out.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  out.add("requests_per_s", rate(n_calls, phase_s).value(), "1/s",
          "calls/s = " + rate(n_calls, phase_s).str());
  // Percentiles per instance, then their mean.  Pooled, the instances'
  // calls form one cluster each, and the pooled p50 falls in the gap
  // between them, where each cluster's extreme call moves it.
  auto per_instance = [](const std::vector<std::vector<double>>& samples, double p) {
    double sum = 0.0;
    for (const std::vector<double>& s : samples) sum += percentile(s, p);
    return sum / static_cast<double>(samples.size());
  };
  const std::string calls_note =
      format("mean over %zu instances of the percentile of each one's %zu calls, %zu beyond p90",
             instances.size(), cycles.size(), samples_beyond(cycles.size(), 90.0));
  out.add("first_solution_ms_p50", per_instance(first_ms, 50.0), "ms", calls_note);
  out.add("first_solution_ms_p90", per_instance(first_ms, 90.0), "ms", calls_note);
  out.add("request_ms_p50", per_instance(request_ms, 50.0), "ms", calls_note);
  out.add("request_ms_p90", per_instance(request_ms, 90.0), "ms", calls_note);
  return out;
}

}  // namespace perfbench
