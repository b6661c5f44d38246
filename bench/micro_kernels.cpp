// Google-benchmark micro-kernels backing the headline numbers: probabilistic
// gate ops (forward+backward), bit-parallel circuit evaluation, CDCL
// propagation, and the transformation itself on a mid-size instance.

#include <benchmark/benchmark.h>

#include "benchgen/families.hpp"
#include "circuit/tseitin.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "solver/cdcl.hpp"
#include "transform/transform.hpp"
#include "util/rng.hpp"

namespace {

using namespace hts;

/// One full GD iteration (embed + forward + backward + update) on a
/// generated q-family circuit; items = probabilistic ops executed.
void BM_GdIteration(benchmark::State& state) {
  const benchgen::Instance instance = benchgen::make_instance("75-10-1-q");
  const transform::Result tr = transform::transform_cnf(instance.formula);
  const prob::CompiledCircuit compiled(tr.circuit);
  prob::Engine::Config config;
  config.batch = static_cast<std::size_t>(state.range(0));
  config.policy = state.range(1) != 0 ? tensor::Policy::kDataParallel
                                      : tensor::Policy::kSerial;
  prob::Engine engine(compiled, config);
  util::Rng rng(2);
  engine.randomize(rng);
  for (auto _ : state) {
    engine.run_iteration();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(compiled.n_ops()) *
                          state.range(0));
  state.SetLabel(state.range(1) != 0 ? "data_parallel" : "serial");
}
BENCHMARK(BM_GdIteration)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});

void BM_CircuitEval64(benchmark::State& state) {
  const benchgen::Instance instance = benchgen::make_instance("75-10-1-q");
  util::Rng rng(3);
  std::vector<std::uint64_t> inputs(instance.circuit.n_inputs());
  for (auto& word : inputs) word = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.circuit.eval64(inputs));
  }
  // 64 samples per call.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CircuitEval64);

void BM_CdclSolveRandomized(benchmark::State& state) {
  const benchgen::Instance instance = benchgen::make_instance("or-50-10-7-UC-10");
  solver::CdclConfig config;
  config.polarity = solver::CdclConfig::Polarity::kRandom;
  solver::CdclSolver solver(config);
  solver.add_formula(instance.formula);
  util::Rng rng(4);
  std::uint64_t solutions = 0;
  for (auto _ : state) {
    solver.reshuffle(rng.next_u64());
    if (solver.solve() == solver::Status::kSat) ++solutions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(solutions));
}
BENCHMARK(BM_CdclSolveRandomized);

void BM_TransformQFamily(benchmark::State& state) {
  const benchgen::Instance instance = benchgen::make_instance("75-10-1-q");
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform::transform_cnf(instance.formula));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instance.formula.n_clauses()));
}
BENCHMARK(BM_TransformQFamily);

void BM_TseitinEncode(benchmark::State& state) {
  const benchgen::Instance instance = benchgen::make_instance("75-10-1-q");
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::tseitin_encode(instance.circuit));
  }
}
BENCHMARK(BM_TseitinEncode);

void BM_RngBulk(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngBulk);

}  // namespace

BENCHMARK_MAIN();
