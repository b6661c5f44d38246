// Traced runs of the stand-alone workloads: per-layer numbers from spans
// around public calls in this file, plus the public stats structs.
//
// The traced run is a replica: it builds what
// run_gd_loop builds and makes the calls RoundRunner::run_round makes, in
// the same order (randomize -> harden -> collect -> rerandomize_rows ->
// run_iteration -> ...).  That stream is a pure function of seed and round
// count, so the replica must bank exactly the unique count of an untraced
// GradientSampler::run with the same seed; the run fails if it does not.
// The timed layer calls must add up to at least 90% of that untraced run's
// sampling time (elapsed_ms), so a replica that skipped part of the real
// loop would fail too.  Two probes ride along outside the replica's own spans: one forward_only()
// per round (forward/backward split; it leaves V untouched) and a re-timing
// of EvalPlan::eval_block over each collected batch (eval/accept split).

#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "circuit/eval_plan.hpp"
#include "core/harvester.hpp"
#include "core/round_runner.hpp"
#include "core/unique_bank.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "stats.hpp"
#include "transform/transform.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace hts;

namespace {

/// A traced run makes at least this many cycles of (untraced call, replica)
/// pairs, one pair per instance each, however long they take.
constexpr std::size_t kMinTraceCycles = 3;

/// Everything run_gd_loop builds before its sampling clock starts, built by
/// the same public calls in the same order and timed one by one.  Holds
/// pointers into itself (problem -> transformed), so it never moves.
struct Pipeline {
  Pipeline(const benchgen::Instance& instance, const sampler::GdLoopConfig& config) {
    util::Timer timer;
    transformed = transform::transform_cnf(instance.formula, transform::Config{});
    times.transform_ms = timer.milliseconds();
    times.circuit_ops = static_cast<double>(transformed.stats.circuit_ops);
    problem.circuit = &transformed.circuit;
    problem.var_signal = &transformed.var_signal;
    problem.input_vars = &transformed.input_vars;
    if (instance.formula.has_sampling_set()) {
      problem.sampling_set = instance.formula.sampling_set();
    }
    timer.reset();
    compiled.emplace(transformed.circuit,
                     prob::CompiledCircuit::Options{config.cone_only, config.optimize_tape});
    times.compile_ms = timer.milliseconds();
    timer.reset();
    eval_plan.emplace(transformed.circuit);
    times.evalplan_ms = timer.milliseconds();
    timer.reset();
    engine.emplace(*compiled, sampler::engine_config_for(config, problem));
    times.engine_alloc_ms = timer.milliseconds();
    times.engine_mb = static_cast<double>(engine->memory_bytes()) / 1e6;
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  transform::Result transformed;
  sampler::GdProblem problem;
  std::optional<prob::CompiledCircuit> compiled;
  std::optional<circuit::EvalPlan> eval_plan;
  std::optional<prob::Engine> engine;
  SetupLayers times;
};

/// Span totals of the replica, in ns.
struct Spans {
  double randomize = 0.0;  // randomize + rerandomize_rows
  double harden = 0.0;
  double collect = 0.0;
  double iteration = 0.0;
  double forward_probe = 0.0;
  double eval_retime = 0.0;
  std::uint64_t forward_probes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t iterations = 0;
  double loop = 0.0;  // replica wall, probes included
  double rows = 0.0;
  double uniques = 0.0;
  double bank_mb = 0.0;

  [[nodiscard]] double covered() const { return randomize + harden + collect + iteration; }
  [[nodiscard]] double loop_without_probes() const {
    return loop - forward_probe - eval_retime;
  }
};

template <typename Fn>
void timed(double& total_ns, Fn&& fn) {
  const std::uint64_t begin = util::monotonic_ns();
  fn();
  total_ns += static_cast<double>(util::monotonic_ns() - begin);
}

/// Re-evaluates a collected batch through EvalPlan::eval_block (plus the
/// satisfied-mask read) with the harvester's own partition across the
/// global pool, so eval time compares with collect time on equal terms.
class EvalRetimer {
 public:
  explicit EvalRetimer(const circuit::EvalPlan& plan) : plan_(plan) {}

  void run(const std::vector<std::uint64_t>& packed, std::size_t n_words,
           double& total_ns) {
    constexpr std::size_t kB = circuit::EvalPlan::kBlockWords;
    const std::size_t n_blocks = (n_words + kB - 1) / kB;
    util::ThreadPool& pool = util::ThreadPool::global();
    const std::size_t n_parts = pool.size() <= 1 ? 1 : std::min(n_blocks, pool.size());
    if (scratch_.size() < n_parts) scratch_.resize(n_parts);
    if (sinks_.size() < n_parts) sinks_.resize(n_parts);
    auto part = [&](std::size_t p) {
      std::vector<std::uint64_t>& slots = scratch_[p];
      slots.resize(plan_.scratch_words());
      std::uint64_t sink = 0;
      for (std::size_t b = n_blocks * p / n_parts; b < n_blocks * (p + 1) / n_parts; ++b) {
        const std::size_t count = std::min(kB, n_words - b * kB);
        plan_.eval_block(packed.data(), n_words, b * kB, count, slots.data());
        for (std::size_t lane = 0; lane < count; ++lane) sink ^= plan_.satisfied(slots.data(), lane);
      }
      sinks_[p] ^= sink;
    };
    timed(total_ns, [&] {
      if (n_parts <= 1) {
        part(0);
      } else {
        pool.parallel_for(n_parts, [&](std::size_t begin, std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) part(p);
        });
      }
    });
  }

 private:
  const circuit::EvalPlan& plan_;
  std::vector<std::vector<std::uint64_t>> scratch_;
  std::vector<std::uint64_t> sinks_;  // keeps the evaluations observable
};

/// The loop configurations the replica reproduces exactly: RoundRunner with
/// per-iteration collects, solved-row restarts, and nothing else.
bool replica_covers(const sampler::GdLoopConfig& config) {
  return config.n_workers == 1 && config.collect_each_iteration &&
         config.restart_solved && config.restart_plateau == 0 &&
         !config.amplify.enabled && !config.diversity_restart &&
         config.lit_weights.empty();
}

/// Runs `config.max_rounds` rounds of the serial loop through public calls;
/// returns the replica's unique count.
std::size_t replicate(const benchgen::Instance& instance, Pipeline& p,
                      const sampler::GdLoopConfig& config,
                      const sampler::RunOptions& options, Spans& spans) {
  prob::Engine& engine = *p.engine;
  sampler::RunResult result;
  sampler::UniqueBank bank(sampler::bank_key_bits(p.problem, config));
  sampler::Harvester<sampler::UniqueBank> harvester(
      p.problem, instance.formula, options, bank, result, &*p.eval_plan,
      /*inline_eval=*/false, sampler::harvest_mode_for(p.problem, config));
  EvalRetimer retimer(*p.eval_plan);
  util::Rng rng(options.seed);
  std::vector<std::uint64_t> packed;

  auto harvest = [&] {
    timed(spans.harden, [&] { engine.harden(packed); });
    timed(spans.collect, [&] { harvester.collect(packed, engine.n_words(), config.batch); });
    retimer.run(packed, engine.n_words(), spans.eval_retime);
  };
  auto restart_solved = [&] {
    timed(spans.randomize, [&] { (void)engine.rerandomize_rows(harvester.last_solved(), rng); });
  };

  const util::Timer loop;
  for (std::uint64_t round = 0; round < config.max_rounds; ++round) {
    timed(spans.randomize, [&] { engine.randomize(rng); });
    harvest();
    restart_solved();
    timed(spans.forward_probe, [&] { engine.forward_only(); });
    ++spans.forward_probes;
    for (int iter = 1; iter <= config.iterations; ++iter) {
      timed(spans.iteration, [&] { engine.run_iteration(); });
      ++spans.iterations;
      harvest();
      if (iter != config.iterations) restart_solved();
    }
    ++spans.rounds;
  }
  spans.loop += static_cast<double>(loop.nanoseconds());
  spans.rows += static_cast<double>(harvester.rows_validated());
  spans.uniques += static_cast<double>(harvester.n_unique());
  spans.bank_mb += static_cast<double>(bank.size_bytes()) / 1e6;
  return harvester.n_unique();
}

std::string note(const Ratio& ratio, const char* what) {
  return std::string(what) + " " + ratio.str();
}

}  // namespace

SetupLayers time_setup_layers(const benchgen::Instance& instance,
                              const sampler::GdLoopConfig& config) {
  return Pipeline(instance, config).times;
}

void add_setup_layers(const std::vector<SetupLayers>& setups, Outcome& out) {
  SetupLayers mean;
  for (const SetupLayers& s : setups) {
    mean.transform_ms += s.transform_ms;
    mean.circuit_ops += s.circuit_ops;
    mean.compile_ms += s.compile_ms;
    mean.evalplan_ms += s.evalplan_ms;
    mean.engine_alloc_ms += s.engine_alloc_ms;
    mean.engine_mb += s.engine_mb;
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, setups.size()));
  const std::string per = "mean over " + std::to_string(setups.size()) + " instances";
  out.add("transform.ms", mean.transform_ms / n, "ms", per);
  out.add("transform.circuit_ops", mean.circuit_ops / n, "count", per);
  out.add("prob.compile_ms", mean.compile_ms / n, "ms", per);
  out.add("circuit.evalplan_build_ms", mean.evalplan_ms / n, "ms", per);
  out.add("prob.engine_alloc_ms", mean.engine_alloc_ms / n, "ms", per);
  out.add("prob.engine_mb", mean.engine_mb / n, "MB", per + ", one engine");
}

Outcome trace_standalone(const Args& args, const StandaloneSpec& spec) {
  Outcome out;
  const std::vector<benchgen::Instance> instances = warm_up(spec, out);
  std::vector<SetupLayers> setups;
  Spans spans;
  // Per pair (one untraced call, then its replica on the same seed), both
  // over the untraced call's elapsed_ms: the real loop, with the
  // checkpoints and progress pushes the replica does not make.
  std::vector<double> coverage;  // timed layer time / untraced elapsed
  std::vector<double> overhead;  // (replica loop - untraced elapsed) / untraced elapsed
  Ratio rows_per_s;     // GdLoopExtras rows_validated / harvest s
  Ratio rows_per_call;  // rows validated per call
  Ratio unique_yield;   // uniques / rows validated
  std::uint64_t index = 2000;
  const util::Timer phase;
  for (std::size_t cycle = 0; !out.failed; ++cycle) {
    const double spent = phase.seconds();
    if (cycle >= kMinTraceCycles &&
        spent + spent / static_cast<double>(cycle) > args.seconds) {
      break;
    }
    for (const benchgen::Instance& instance : instances) {
      const sampler::GradientConfig config = standalone_config(spec, instance);
      const sampler::GdLoopConfig loop_config = sampler::make_gd_loop_config(config);
      const sampler::RunOptions options = standalone_options(args.seed, index++);
      ++out.attempted;
      if (!replica_covers(loop_config)) {
        out.fail(instance.name + ": the replica does not reproduce this loop configuration");
        break;
      }

      // The untraced reference: the public entry point, nothing around it.
      sampler::GradientSampler sampler(config);
      const sampler::RunResult reference = sampler.run(instance.formula, options);
      const sampler::GdLoopExtras& extras = sampler.extras();
      rows_per_s.num += static_cast<double>(extras.rows_validated);
      rows_per_s.den += extras.harvest_ms / 1e3;
      rows_per_call.num += static_cast<double>(extras.rows_validated);
      rows_per_call.den += 1.0;
      unique_yield.num += static_cast<double>(reference.n_unique);
      unique_yield.den += static_cast<double>(extras.rows_validated);

      Pipeline pipeline(instance, loop_config);
      setups.push_back(pipeline.times);
      const double covered_before = spans.covered();
      const double loop_before = spans.loop_without_probes();
      const std::size_t replica_uniques =
          replicate(instance, pipeline, loop_config, options, spans);
      if (replica_uniques != reference.n_unique) {
        out.fail(instance.name + ": replica banked " + std::to_string(replica_uniques) +
                 " uniques, untraced run " + std::to_string(reference.n_unique));
      }
      const double reference_ns = reference.elapsed_ms * 1e6;
      coverage.push_back((spans.covered() - covered_before) / reference_ns);
      overhead.push_back((spans.loop_without_probes() - loop_before - reference_ns) /
                         reference_ns);
    }
  }
  if (spans.rounds == 0) return out;

  add_setup_layers(setups, out);
  out.add("core.harvest_rows_per_worker_s", rows_per_s.value(), "1/s",
          note(rows_per_s, "GdLoopExtras rows/harvest s"));
  out.add("core.rows_validated", rows_per_call.value(), "count",
          note(rows_per_call, "rows per call"));
  out.add("core.unique_yield", unique_yield.value(), "ratio",
          note(unique_yield, "uniques/rows"));
  const Ratio bank_mb{spans.bank_mb, static_cast<double>(instances.size())};
  out.add("core.bank_mb", bank_mb.value(), "MB", note(bank_mb, "bank MB per call"));

  const auto rounds = static_cast<double>(spans.rounds);
  const double per_round = 1e-6 / rounds;  // ns totals -> ms per round
  const double iters_per_round = static_cast<double>(spans.iterations) / rounds;
  const double forward_per_iter =
      spans.forward_probe / static_cast<double>(spans.forward_probes);
  const double iteration_ms = spans.iteration * per_round;
  const double forward_ms = forward_per_iter * iters_per_round * 1e-6;
  const std::string rounds_note = "ms per round, " + std::to_string(spans.rounds) + " rounds";
  out.add("prob.iteration_ms", iteration_ms, "ms", rounds_note);
  out.add("prob.forward_ms", forward_ms, "ms",
          rounds_note + ", forward_only probe x iterations/round");
  out.add("prob.backward_update_ms", iteration_ms - forward_ms, "ms", rounds_note);
  const Ratio iters{static_cast<double>(spans.iterations), spans.iteration / 1e9};
  out.add("prob.iters_per_s", iters.value(), "1/s", note(iters, "iterations/s"));
  out.add("prob.randomize_ms", spans.randomize * per_round, "ms", rounds_note);
  out.add("prob.harden_ms", spans.harden * per_round, "ms", rounds_note);
  out.add("circuit.eval_ms", spans.eval_retime * per_round, "ms",
          rounds_note + ", eval_block re-timed on the collected words");
  out.add("core.collect_ms", spans.collect * per_round, "ms", rounds_note);
  out.add("core.accept_ms", (spans.collect - spans.eval_retime) * per_round, "ms",
          rounds_note + ", collect - eval");

  const double coverage_pct = 100.0 * median(coverage);
  const std::string pairs_note =
      format("median of %zu pairs, min %.4g%%, max %.4g%%", coverage.size(),
             100.0 * percentile(coverage, 0.0), 100.0 * percentile(coverage, 100.0));
  out.add("trace.coverage_pct", coverage_pct, "%",
          "timed layer ms/untraced elapsed_ms, " + pairs_note);
  out.add("trace.overhead_pct", 100.0 * median(overhead), "%",
          format("(replica loop ms - untraced elapsed_ms)/untraced elapsed_ms, median of "
                 "%zu pairs",
                 overhead.size()));
  ++out.attempted;
  if (coverage_pct < 90.0) {
    out.fail(format("timed layer calls cover only %.4g%% of the untraced loop (bar: 90%%)",
                    coverage_pct));
  }
  return out;
}

}  // namespace perfbench
