// Tape-engine bench: GD iterations/sec of the vectorized engine vs the
// pre-optimization baseline, on one representative instance per benchgen
// family (same batch, same circuit), plus a scheduling-policy sweep.
//
// Modes:
//   baseline   raw gate-per-gate tape, exact std::exp sigmoid, serial —
//              the pre-optimizer engine's opset and numerics
//   opt        optimized tape (copy-prop, folds, CSE, fused NOTs, DCE),
//              exact sigmoid, serial — isolates the tape optimizer
//   opt+fsig   optimized tape + fast polynomial sigmoid, serial per-tile —
//              the default engine configuration every sampler runs
//   tiles      opt+fsig dispatched per tile across the thread pool
//
// Besides GD iterations/sec the bench measures the *harvest* side of the
// loop: rows validated/sec of the scalar Circuit::eval64 walk vs the
// compiled word-parallel circuit::EvalPlan (single thread — the acceptance
// comparison), recorded as two extra JSON records per instance (modes
// `harvest-scalar` and `harvest-plan`).  Opcode-run statistics of the
// engine plan (run count, longest/mean run) ride along on every record.
//
// The per-instance header reports the plan shape (level count, width
// histogram).
//
// Accepts `--json <path>` (bench_common JSON schema) so the perf trajectory
// can be archived; CI's perf-smoke job runs this bench with a tiny budget
// and uploads the JSON as a workflow artifact.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "circuit/eval_plan.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace hts;

struct ModeResult {
  std::size_t iterations = 0;
  double elapsed_ms = 0.0;
  double iters_per_sec = 0.0;
};

/// Ops per kernel-dispatch switch; one definition serves the JSON records,
/// the stderr summary, and the harvest table so they can never drift.
double mean_run_length(std::size_t n_ops, std::size_t n_runs) {
  return n_runs > 0
             ? static_cast<double>(n_ops) / static_cast<double>(n_runs)
             : 0.0;
}

ModeResult time_iterations(const prob::CompiledCircuit& compiled,
                           std::size_t batch, bool fast_sigmoid,
                           tensor::Policy policy, double budget_ms,
                           std::uint64_t seed) {
  prob::Engine::Config config;
  config.batch = batch;
  config.policy = policy;
  config.fast_sigmoid = fast_sigmoid;
  prob::Engine engine(compiled, config);
  util::Rng rng(seed);
  engine.randomize(rng);
  engine.run_iteration();  // warm up caches and page in the buffers

  ModeResult result;
  util::Timer timer;
  do {
    engine.run_iteration();
    ++result.iterations;
    result.elapsed_ms = timer.milliseconds();
  } while (result.elapsed_ms < budget_ms);
  result.iters_per_sec = result.elapsed_ms > 0.0
                             ? 1000.0 * static_cast<double>(result.iterations) /
                                   result.elapsed_ms
                             : 0.0;
  return result;
}

struct HarvestResult {
  std::uint64_t rows = 0;
  double elapsed_ms = 0.0;
  [[nodiscard]] double rows_per_sec() const {
    return elapsed_ms > 0.0 ? 1000.0 * static_cast<double>(rows) / elapsed_ms
                            : 0.0;
  }
};

/// Rows validated/sec of the scalar reference: per word, gather the input
/// words, interpret the circuit with eval64, and reduce the satisfied mask —
/// the pre-EvalPlan harvest inner loop.  Only real batch rows count (the
/// final word's padding lanes are computed but not validated rows, matching
/// Harvester::rows_validated's definition).
HarvestResult time_harvest_scalar(const circuit::Circuit& circuit,
                                  const std::vector<std::uint64_t>& packed,
                                  std::size_t n_words, std::size_t batch,
                                  double budget_ms) {
  std::vector<std::uint64_t> input_words(circuit.n_inputs());
  HarvestResult result;
  std::uint64_t sink = 0;
  util::Timer timer;
  do {
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t i = 0; i < circuit.n_inputs(); ++i) {
        input_words[i] = packed[i * n_words + w];
      }
      sink ^= circuit.outputs_satisfied64(circuit.eval64(input_words));
      result.rows += std::min<std::size_t>(64, batch - w * 64);
    }
    result.elapsed_ms = timer.milliseconds();
  } while (result.elapsed_ms < budget_ms);
  if (sink == 0x5eedULL) std::fprintf(stderr, "(sink)\n");  // keep sink live
  return result;
}

/// Rows validated/sec of the compiled plan: block evaluation through the
/// opcode-batched u64x4 kernels over reused scratch — the Harvester's
/// phase-1 inner loop, single thread.
HarvestResult time_harvest_plan(const circuit::EvalPlan& plan,
                                const std::vector<std::uint64_t>& packed,
                                std::size_t n_words, std::size_t batch,
                                double budget_ms) {
  std::vector<std::uint64_t> slots(plan.scratch_words());
  HarvestResult result;
  std::uint64_t sink = 0;
  util::Timer timer;
  do {
    for (std::size_t w0 = 0; w0 < n_words;
         w0 += circuit::EvalPlan::kBlockWords) {
      const std::size_t count =
          std::min(circuit::EvalPlan::kBlockWords, n_words - w0);
      plan.eval_block(packed.data(), n_words, w0, count, slots.data());
      for (std::size_t lane = 0; lane < count; ++lane) {
        sink ^= plan.satisfied(slots.data(), lane);
        result.rows += std::min<std::size_t>(64, batch - (w0 + lane) * 64);
      }
    }
    result.elapsed_ms = timer.milliseconds();
  } while (result.elapsed_ms < budget_ms);
  if (sink == 0x5eedULL) std::fprintf(stderr, "(sink)\n");
  return result;
}

/// Compact power-of-two histogram of level widths, e.g. "1:120 2-3:40 4-7:9".
std::string width_histogram(const prob::ExecPlan& plan) {
  std::vector<std::size_t> buckets;
  for (std::size_t l = 0; l < plan.n_levels(); ++l) {
    std::size_t w = plan.width(l);
    std::size_t bucket = 0;
    while (w > 1) {
      w >>= 1;
      ++bucket;
    }
    if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
  }
  std::string out;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const std::size_t lo = 1ULL << b;
    const std::size_t hi = (2ULL << b) - 1;
    if (!out.empty()) out += ' ';
    out += lo == hi ? std::to_string(lo)
                    : std::to_string(lo) + "-" + std::to_string(hi);
    out += ':';
    out += std::to_string(buckets[b]);
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace

int bench_main(int argc, char** argv) {
  bench::BenchEnv env;
  bench::JsonWriter json(argc, argv, "tape_engine");
  // A fraction of the sampler budget per (instance, mode) keeps the default
  // full sweep near the usual bench runtime.
  const double budget_ms = env.budget_ms / 8.0;

  std::printf("=== Tape engine: GD iterations/sec by tape and schedule ===\n");
  std::printf("budget %.0f ms per mode\n\n", budget_ms);

  const std::vector<std::string> instances = {"or-50-10-7-UC-10", "75-10-1-q",
                                              "s15850a_3_2", "Prod-8"};
  util::Table table(
      {"Instance", "Mode", "Policy", "Ops", "Iters/s", "vs base", "vs pertile"});
  util::Table harvest_table(
      {"Instance", "Backend", "Ops", "Runs", "MeanRun", "Rows/s", "Speedup"});

  bool any_doubled = false;
  std::size_t harvest_doubled = 0;
  for (const std::string& name : instances) {
    std::fprintf(stderr, "[tape_engine] %s ...\n", name.c_str());
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    const std::size_t batch =
        bench::pick_batch(env, instance.formula.n_vars());

    const prob::CompiledCircuit raw(
        instance.circuit, prob::CompiledCircuit::Options{false, false});
    const prob::CompiledCircuit opt(instance.circuit);
    const prob::OptStats& stats = opt.opt_stats();
    const prob::ExecPlan& plan = opt.plan();
    auto plan_mean_width = [](const prob::ExecPlan& p) {
      return p.n_levels() > 0 ? static_cast<double>(p.n_ops()) /
                                    static_cast<double>(p.n_levels())
                              : 0.0;
    };
    const double mean_width = plan_mean_width(plan);

    const ModeResult base =
        time_iterations(raw, batch, /*fast_sigmoid=*/false,
                        tensor::Policy::kSerial, budget_ms, env.seed);
    const ModeResult opt_exact =
        time_iterations(opt, batch, /*fast_sigmoid=*/false,
                        tensor::Policy::kSerial, budget_ms, env.seed);
    const ModeResult opt_fast =
        time_iterations(opt, batch, /*fast_sigmoid=*/true,
                        tensor::Policy::kSerial, budget_ms, env.seed);
    const ModeResult opt_tiles =
        time_iterations(opt, batch, /*fast_sigmoid=*/true,
                        tensor::Policy::kDataParallel, budget_ms, env.seed);

    struct Row {
      const char* mode;
      tensor::Policy policy;
      const prob::CompiledCircuit* compiled;
      const ModeResult* result;
    };
    const Row rows[] = {
        {"baseline", tensor::Policy::kSerial, &raw, &base},
        {"opt", tensor::Policy::kSerial, &opt, &opt_exact},
        {"opt+fsig", tensor::Policy::kSerial, &opt, &opt_fast},
        {"tiles", tensor::Policy::kDataParallel, &opt, &opt_tiles}};
    for (const Row& row : rows) {
      const double speedup = base.iters_per_sec > 0.0
                                 ? row.result->iters_per_sec / base.iters_per_sec
                                 : 0.0;
      const double vs_pertile =
          opt_fast.iters_per_sec > 0.0
              ? row.result->iters_per_sec / opt_fast.iters_per_sec
              : 0.0;
      table.add_row({name, row.mode, tensor::policy_name(row.policy),
                     std::to_string(row.compiled->n_ops()),
                     util::format_grouped(row.result->iters_per_sec, 1),
                     util::format_speedup(speedup),
                     util::format_speedup(vs_pertile)});
      bench::JsonRecord record;
      record.field("instance", name)
          .field("mode", row.mode)
          .field("policy", tensor::policy_name(row.policy))
          .field("batch", batch)
          .field("ops", row.compiled->n_ops())
          .field("slots", row.compiled->n_slots())
          .field("iterations", row.result->iterations)
          .field("elapsed_ms", row.result->elapsed_ms)
          .field("iters_per_sec", row.result->iters_per_sec)
          .field("speedup_vs_baseline", speedup)
          .field("speedup_vs_pertile", vs_pertile)
          .field("tape_ops_removed", stats.ops_before - stats.ops_after)
          .field("slots_removed", stats.slots_before - stats.slots_after)
          .field("copies_propagated", stats.copies_propagated)
          .field("consts_folded", stats.consts_folded)
          .field("cse_eliminated", stats.cse_eliminated)
          .field("nots_fused", stats.nots_fused)
          .field("ops_dead", stats.ops_dead)
          .field("n_levels", row.compiled->plan().n_levels())
          .field("max_level_width", row.compiled->plan().max_width())
          .field("mean_level_width", plan_mean_width(row.compiled->plan()))
          .field("n_opcode_runs", row.compiled->plan().n_runs())
          .field("max_run_length", row.compiled->plan().max_run_length())
          .field("mean_run_length",
                 mean_run_length(row.compiled->n_ops(),
                                 row.compiled->plan().n_runs()));
      json.add(record);
      // The optimizer acceptance bar counts serial rows only — a pooled
      // policy doubling over baseline is thread parallelism, not the tape
      // optimizer this bench exists to gate.
      if (row.policy == tensor::Policy::kSerial && speedup >= 2.0) {
        any_doubled = true;
      }
    }
    std::printf("%s: tape %zu -> %zu ops (%.1f%%); copy-prop %zu, folded %zu, "
                "cse %zu, fused %zu, dead %zu\n",
                name.c_str(), stats.ops_before, stats.ops_after,
                100.0 * static_cast<double>(stats.ops_before - stats.ops_after) /
                    static_cast<double>(stats.ops_before == 0 ? 1
                                                              : stats.ops_before),
                stats.copies_propagated, stats.consts_folded,
                stats.cse_eliminated, stats.nots_fused, stats.ops_dead);
    std::printf("  plan: %zu levels, width max %zu mean %.1f, histogram %s\n",
                plan.n_levels(), plan.max_width(), mean_width,
                width_histogram(plan).c_str());
    std::printf("  engine runs: %zu (max %zu, mean %.1f per switch)\n",
                plan.n_runs(), plan.max_run_length(),
                mean_run_length(opt.n_ops(), plan.n_runs()));

    // ---- harvest throughput: scalar eval64 vs compiled word plan ----
    const circuit::EvalPlan eval_plan(instance.circuit);
    const std::size_t n_words = (batch + 63) / 64;
    util::Rng rng(env.seed);
    std::vector<std::uint64_t> packed(instance.circuit.n_inputs() * n_words);
    for (std::uint64_t& word : packed) word = rng.next_u64();
    const HarvestResult scalar =
        time_harvest_scalar(instance.circuit, packed, n_words, batch, budget_ms);
    const HarvestResult compiled_harvest =
        time_harvest_plan(eval_plan, packed, n_words, batch, budget_ms);
    const double harvest_speedup =
        scalar.rows_per_sec() > 0.0
            ? compiled_harvest.rows_per_sec() / scalar.rows_per_sec()
            : 0.0;
    if (harvest_speedup >= 2.0) ++harvest_doubled;
    const auto& hplan = eval_plan.plan();
    const double mean_run = mean_run_length(hplan.n_ops(), hplan.n_runs());
    harvest_table.add_row({name, "scalar", std::to_string(hplan.n_ops()), "-",
                           "-", util::format_grouped(scalar.rows_per_sec(), 1),
                           "1.00x"});
    harvest_table.add_row(
        {name, "plan", std::to_string(hplan.n_ops()),
         std::to_string(hplan.n_runs()), util::format_fixed(mean_run, 1),
         util::format_grouped(compiled_harvest.rows_per_sec(), 1),
         util::format_speedup(harvest_speedup)});
    const HarvestResult* harvest_rows[] = {&scalar, &compiled_harvest};
    const char* harvest_modes[] = {"harvest-scalar", "harvest-plan"};
    for (int h = 0; h < 2; ++h) {
      bench::JsonRecord record;
      record.field("instance", name)
          .field("mode", harvest_modes[h])
          .field("batch", batch)
          .field("rows_validated", harvest_rows[h]->rows)
          .field("elapsed_ms", harvest_rows[h]->elapsed_ms)
          .field("harvest_rows_per_sec", harvest_rows[h]->rows_per_sec())
          .field("harvest_speedup", h == 0 ? 1.0 : harvest_speedup)
          .field("eval_ops", hplan.n_ops())
          .field("eval_levels", hplan.n_levels())
          .field("eval_runs", hplan.n_runs())
          .field("eval_mean_run_length", mean_run)
          .field("eval_temp_slots",
                 eval_plan.n_slots() - eval_plan.n_signals());
      json.add(record);
    }
  }

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("CSV:\n%s", table.to_csv().c_str());
  std::printf("\n=== Harvest: rows validated/sec, scalar eval64 vs compiled "
              "plan (single thread) ===\n%s\n",
              harvest_table.to_string().c_str());
  std::printf(
      "Harvest acceptance bar: >= 2x rows-validated/sec on >= 2 families -- "
      "%s (%zu/4 doubled).\n",
      harvest_doubled >= 2 ? "met" : "NOT met at this budget", harvest_doubled);
  std::printf(
      "\nReading: `opt` isolates the tape optimizer, `opt+fsig` is the serial\n"
      "per-tile engine every sampler runs by default, `tiles` puts the same\n"
      "tape on the thread pool, one contiguous tile range per pool thread.\n"
      "The optimizer acceptance bar is >= 2x iterations/sec over baseline on\n"
      "at least one family%s.\n",
      any_doubled ? " -- met" : " -- NOT met at this budget");
  if (!json.write(env)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
