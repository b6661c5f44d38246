// Reproduces Fig. 4 on the paper's 4 ablation instances:
//   (left)   data-parallel-over-serial speedup of the identical GD sampling
//            kernels (the paper's GPU-over-CPU bars, avg 6.8x on a V100);
//   (middle) bit-wise op reduction rate of the transformation in 2-input
//            gate equivalents (paper avg 4.2x);
//   (right)  transformation time, CNF -> multi-level function (paper: 2.1 s
//            to 292.2 s under Python/SymPy; this C++ engine is far faster).
//
// Extensions beyond the paper: GD over the full circuit vs GD restricted to
// the constrained cone (cone-only compilation), and learning-rate and
// init-std sweeps around the paper's lr = 10 (unique yield of one round at
// batch 16384 on or-100-20-8-UC-10 and 90-10-10-q).
//
// HTS_BENCH_ABLATION_ROUNDS (default 3, must be >= 1) sets the GD rounds
// each Fig. 4 timing runs; an invalid value exits with status 2.

#include <cstdio>

#include "bench_common.hpp"
#include "transform/transform.hpp"
#include "util/timer.hpp"

namespace {

using namespace hts;

constexpr std::size_t kSweepBatch = 16384;

/// Runs exactly config.max_rounds GD rounds: no time budget, no target.
sampler::RunResult run_rounds(const cnf::Formula& formula,
                              const sampler::GradientConfig& config,
                              std::uint64_t seed) {
  sampler::GradientSampler sampler(config);
  sampler::RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = -1.0;
  options.seed = seed;
  return sampler.run(formula, options);
}

/// Wall time of a fixed number of GD rounds under a policy.
double time_rounds(const cnf::Formula& formula, const bench::BenchEnv& env,
                   tensor::Policy policy, bool cone_only, bool optimize_tape,
                   std::uint64_t rounds) {
  sampler::GradientConfig config;
  config.batch = bench::pick_batch(env, formula.n_vars());
  config.policy = policy;
  config.cone_only = cone_only;
  config.optimize_tape = optimize_tape;
  config.max_rounds = rounds;
  config.collect_each_iteration = false;  // time the learning, not harvesting
  return run_rounds(formula, config, env.seed).elapsed_ms;
}

/// Unique yield of one round of kSweepBatch rows at the given GD
/// hyperparameters.
std::size_t yield_one_round(const cnf::Formula& formula, float lr,
                            float init_std, std::uint64_t seed) {
  sampler::GradientConfig config;
  config.batch = kSweepBatch;
  config.learning_rate = lr;
  config.init_std = init_std;
  config.max_rounds = 1;
  return run_rounds(formula, config, seed).n_unique;
}

}  // namespace

int bench_main(int /*argc*/, char** /*argv*/) {
  using namespace hts;
  const bench::BenchEnv env;
  const std::int64_t rounds_env = util::env_int("HTS_BENCH_ABLATION_ROUNDS", 3);
  if (rounds_env < 1) {
    std::fprintf(stderr, "HTS_BENCH_ABLATION_ROUNDS must be >= 1 (got %lld)\n",
                 static_cast<long long>(rounds_env));
    return 2;
  }
  const auto rounds = static_cast<std::uint64_t>(rounds_env);

  std::printf("=== Fig. 4: ablation on 4 instances (scale %.2f) ===\n\n", env.scale);

  util::Table table({"Instance", "Parallel(ms)", "Serial(ms)", "Speedup",
                     "CNF ops", "Circuit ops", "Ops reduction", "Transform(s)",
                     "ConeOnly(ms)", "Cone speedup"});

  double speedup_sum = 0.0;
  double reduction_sum = 0.0;
  std::size_t n = 0;
  for (const std::string& name : benchgen::ablation_names()) {
    std::fprintf(stderr, "[fig4] %s ...\n", name.c_str());
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    const auto& formula = instance.formula;

    // (middle) + (right): transformation statistics.
    const transform::Result tr = transform::transform_cnf(formula);

    // (left): identical kernels, serial vs data-parallel.
    const double parallel_ms = time_rounds(
        formula, env, tensor::Policy::kDataParallel, false, true, rounds);
    const double serial_ms =
        time_rounds(formula, env, tensor::Policy::kSerial, false, true, rounds);
    // Extension: constrained-cone-only compilation (parallel policy).  Both
    // arms disable the tape optimizer: its dead-code elimination prunes the
    // same unconstrained logic cone_only skips, so optimized full-vs-cone
    // would compare two identical tapes.
    const double full_unopt_ms = time_rounds(
        formula, env, tensor::Policy::kDataParallel, false, false, rounds);
    const double cone_ms = time_rounds(formula, env,
                                       tensor::Policy::kDataParallel, true,
                                       false, rounds);

    const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
    speedup_sum += speedup;
    reduction_sum += tr.stats.ops_reduction();
    ++n;

    table.add_row({name, util::format_fixed(parallel_ms, 1),
                   util::format_fixed(serial_ms, 1), util::format_speedup(speedup),
                   std::to_string(tr.stats.cnf_ops),
                   std::to_string(tr.stats.circuit_ops),
                   util::format_speedup(tr.stats.ops_reduction()),
                   util::format_fixed(tr.stats.transform_ms / 1e3, 3),
                   util::format_fixed(cone_ms, 1),
                   util::format_speedup(cone_ms > 0 ? full_unopt_ms / cone_ms
                                                    : 0.0)});
  }

  std::printf("%s\n", table.to_string().c_str());
  if (n > 0) {
    std::printf("average parallel-over-serial speedup : %.1fx (paper: 6.8x GPU/CPU)\n",
                speedup_sum / static_cast<double>(n));
    std::printf("average ops reduction                : %.1fx (paper: 4.2x)\n",
                reduction_sum / static_cast<double>(n));
  }
  std::printf("\nPaper reference: per-instance GPU speedups 2.5x/4.5x/8.1x/11.9x;\n"
              "ops reductions 3.6x-4.5x; transform times 2.1s-292.2s (SymPy).\n\n");

  // Extension: hyperparameter sweeps, one round each.
  util::Table lr_table({"Instance", "lr=0.5", "lr=2", "lr=10 (paper)", "lr=50"});
  util::Table std_table(
      {"Instance", "std=0.5", "std=1", "std=2 (default)", "std=4"});
  for (const std::string& name : {std::string("or-100-20-8-UC-10"),
                                  std::string("90-10-10-q")}) {
    std::fprintf(stderr, "[sweep] %s ...\n", name.c_str());
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    std::vector<std::string> lr_row{name};
    for (const float lr : {0.5f, 2.0f, 10.0f, 50.0f}) {
      lr_row.push_back(std::to_string(
          yield_one_round(instance.formula, lr, 2.0f, env.seed)));
    }
    lr_table.add_row(std::move(lr_row));
    std::vector<std::string> std_row{name};
    for (const float init_std : {0.5f, 1.0f, 2.0f, 4.0f}) {
      std_row.push_back(std::to_string(
          yield_one_round(instance.formula, 10.0f, init_std, env.seed)));
    }
    std_table.add_row(std::move(std_row));
  }
  std::printf("--- learning-rate sweep: unique yield of one round, batch %zu ---\n",
              kSweepBatch);
  std::printf("%s\n", lr_table.to_string().c_str());
  std::printf("--- init-std sweep at lr=10 ---\n");
  std::printf("%s\n", std_table.to_string().c_str());
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
