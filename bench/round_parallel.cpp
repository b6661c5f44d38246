// Round-parallel scaling bench: unique-solutions/sec of the gradient sampler
// as GdLoopConfig::n_workers grows, on one representative instance per
// benchgen family.  The DEMOTIC observation this reproduces: rounds of the
// GD loop are embarrassingly parallel, so on a W-core machine W workers with
// decorrelated streams should multiply unique throughput until the bank or
// the memory bandwidth saturates.
//
// Extra knobs on top of bench_common's:
//   HTS_BENCH_WORKERS  comma-free max worker count to sweep to
//                      (default: hardware concurrency)
//   HTS_BENCH_POLICY   per-engine kernel scheduling under the workers:
//                      serial (default) | tiles — recorded in the JSON so
//                      trajectory plots can segment by mode
//
// Accepts `--json <path>` to mirror the result rows machine-readably (see
// bench_common.hpp's JsonWriter).  Records carry the harvest pipeline's
// throughput (rows_validated, harvest_ms, harvest_rows_per_worker_sec from
// the loop's extras — rows and wall-clock are summed across workers, so the
// rate is per worker) and the engine plan's opcode-run stats, so the perf
// trajectory tracks both halves of the loop.

#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "prob/compiled.hpp"
#include "transform/transform.hpp"

namespace {

using namespace hts;

tensor::Policy policy_from_env() {
  const std::string name = util::env_string("HTS_BENCH_POLICY", "serial");
  if (name == "tiles") return tensor::Policy::kDataParallel;
  if (name != "serial") {
    std::fprintf(stderr,
                 "[round_parallel] unknown HTS_BENCH_POLICY '%s', using "
                 "serial\n",
                 name.c_str());
  }
  return tensor::Policy::kSerial;
}

struct WorkerRun {
  sampler::RunResult result;
  /// Harvest accounting of the run (rows validated across all workers and
  /// the wall-clock spent validating them).
  sampler::GdLoopExtras extras;
};

WorkerRun run_with_workers(const cnf::Formula& formula,
                           const bench::BenchEnv& env, std::size_t n_vars,
                           std::size_t n_workers, tensor::Policy policy,
                           bool amplify = false) {
  sampler::GradientConfig config;
  config.batch = bench::pick_batch(env, n_vars);
  config.n_workers = n_workers;
  // Default keeps each engine's kernels on the caller thread: round-parallel
  // workers are the parallelism axis under test, so stacking a pool policy
  // on top would blur whose speedup is measured.  HTS_BENCH_POLICY overrides
  // to measure the composition deliberately.
  config.policy = policy;
  config.amplify.enabled = amplify;
  sampler::GradientSampler sampler(config);
  WorkerRun run;
  run.result = sampler.run(formula, bench::run_options(env));
  run.extras = sampler.extras();
  return run;
}

}  // namespace

int bench_main(int argc, char** argv) {
  bench::BenchEnv env;
  bench::JsonWriter json(argc, argv, "round_parallel");
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto max_workers = static_cast<std::size_t>(util::env_int(
      "HTS_BENCH_WORKERS", static_cast<long long>(hardware)));
  const tensor::Policy policy = policy_from_env();

  std::printf("=== Round-parallel scaling: unique sol/s vs n_workers ===\n");
  std::printf(
      "budget %.0f ms, target %zu uniques, hardware threads %zu, "
      "engine policy %s\n\n",
      env.budget_ms, env.min_solutions, hardware, tensor::policy_name(policy));

  const std::vector<std::string> instances = {"or-50-10-7-UC-10", "75-10-1-q",
                                              "s15850a_3_2", "Prod-8"};
  util::Table table({"Instance", "Workers", "Unique", "Latency(ms)", "Sol/s",
                     "Speedup"});
  util::Table amp_table({"Instance", "Unique", "Amplified", "Sol/s",
                         "vs serial"});

  for (const std::string& name : instances) {
    std::fprintf(stderr, "[round_parallel] %s ...\n", name.c_str());
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    const auto& formula = instance.formula;
    // Compile the same transformed circuit the sampler will run, so the
    // recorded plan shape matches the measured engine exactly.
    const transform::Result transformed =
        transform::transform_cnf(formula);
    const prob::CompiledCircuit compiled(transformed.circuit);
    const prob::ExecPlan& plan = compiled.plan();

    double serial_throughput = 0.0;
    for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
      const WorkerRun run =
          run_with_workers(formula, env, formula.n_vars(), workers, policy);
      const sampler::RunResult& result = run.result;
      const double throughput = result.throughput();
      // rows_validated and harvest_ms are both summed across workers, so the
      // ratio is the mean per-worker validation rate — comparable across the
      // worker sweep, unlike an aggregate rate would be.
      const double harvest_rows_per_worker_sec =
          run.extras.harvest_ms > 0.0
              ? 1000.0 * static_cast<double>(run.extras.rows_validated) /
                    run.extras.harvest_ms
              : 0.0;
      if (workers == 1) serial_throughput = throughput;
      table.add_row({name, std::to_string(workers),
                     std::to_string(result.n_unique),
                     util::format_fixed(result.elapsed_ms, 2),
                     util::format_grouped(throughput, 1),
                     serial_throughput > 0.0
                         ? util::format_speedup(throughput / serial_throughput)
                         : "n/a"});
      bench::JsonRecord record;
      record.field("instance", name)
          .field("workers", workers)
          .field("policy", tensor::policy_name(policy))
          .field("unique", result.n_unique)
          .field("elapsed_ms", result.elapsed_ms)
          .field("sol_per_sec", throughput)
          .field("speedup_vs_serial",
                 serial_throughput > 0.0 ? throughput / serial_throughput : 0.0)
          .field("timed_out", result.timed_out)
          .field("tape_ops", compiled.n_ops())
          .field("cse_eliminated", compiled.opt_stats().cse_eliminated)
          .field("n_levels", plan.n_levels())
          .field("max_level_width", plan.max_width())
          .field("n_opcode_runs", plan.n_runs())
          .field("max_run_length", plan.max_run_length())
          .field("rows_validated", run.extras.rows_validated)
          .field("harvest_ms", run.extras.harvest_ms)
          .field("harvest_rows_per_worker_sec", harvest_rows_per_worker_sec);
      json.add(record);
    }

    // Flip-amplification rider: one serial run with the word-parallel
    // amplifier on, against the serial baseline above.  Records carry the
    // amplified counters so the perf trajectory can segment harvested vs
    // amplified uniques per family.
    const WorkerRun amp = run_with_workers(formula, env, formula.n_vars(), 1,
                                           policy, /*amplify=*/true);
    const double amp_throughput = amp.result.throughput();
    const double amp_vs_serial =
        serial_throughput > 0.0 ? amp_throughput / serial_throughput : 0.0;
    amp_table.add_row({name, std::to_string(amp.result.n_unique),
                       std::to_string(amp.extras.amplified_uniques),
                       util::format_grouped(amp_throughput, 1),
                       serial_throughput > 0.0
                           ? util::format_speedup(amp_vs_serial)
                           : "n/a"});
    bench::JsonRecord amp_record;
    amp_record.field("instance", name)
        .field("workers", std::size_t{1})
        .field("policy", tensor::policy_name(policy))
        .field("amplify", true)
        .field("unique", amp.result.n_unique)
        .field("elapsed_ms", amp.result.elapsed_ms)
        .field("sol_per_sec", amp_throughput)
        .field("amplified_candidates", amp.extras.amplified_candidates)
        .field("amplified_uniques", amp.extras.amplified_uniques)
        .field("amplify_ms", amp.extras.amplify_ms)
        .field("speedup_vs_serial", amp_vs_serial)
        .field("timed_out", amp.result.timed_out);
    json.add(amp_record);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("flip amplification (serial round loop, amplifier on):\n%s\n",
              amp_table.to_string().c_str());
  std::printf("CSV:\n%s", table.to_csv().c_str());
  std::printf("\nReading: speedup ~W on a W-core machine means round-parallel\n"
              "sampling is compute-bound and scaling cleanly; a flat line on a\n"
              "single-core host only confirms the serial path's overheads are\n"
              "not regressed by the worker machinery.\n");
  if (!json.write(env)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
