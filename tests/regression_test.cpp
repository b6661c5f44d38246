// Cross-cutting regression cases: gate-signature corners of Algorithm 1
// (NAND/NOR/implication blocks), partial-word masking in the GD harvester,
// store_all_draws semantics, XOR-heavy simplification, sampling streams
// pinned by fingerprints recorded across commits, and solver/walksat
// agreement on benchmark-family instances.

#include <gtest/gtest.h>

#include <set>

#include "benchgen/families.hpp"
#include "benchgen/suite.hpp"
#include "circuit/tseitin.hpp"
#include "cnf/dimacs.hpp"
#include "baselines/diff_sampler.hpp"
#include "core/circuit_sampler.hpp"
#include "core/gradient_sampler.hpp"
#include "expr/expr.hpp"
#include "service/server.hpp"
#include "solver/brute.hpp"
#include "solver/cdcl.hpp"
#include "solver/walksat.hpp"
#include "transform/transform.hpp"

namespace hts {
namespace {

// --- Algorithm 1 signature corners ---------------------------------------------

TEST(TransformSignatures, NandRecoveredAsComplementedAnd) {
  // f <-> ~(a & b): clauses (f|a)(f|b)(~f|~a|~b); f = var 3.
  const auto f = cnf::parse_dimacs_string("p cnf 3 3\n3 1 0\n3 2 0\n-3 -1 -2 0\n");
  const auto r = transform::transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  EXPECT_EQ(r.stats.n_flushed_blocks, 0u);
  const std::uint64_t expected = solver::count_models(f);
  // Count circuit solutions.
  std::uint64_t got = 0;
  std::vector<std::uint8_t> in(r.circuit.n_inputs());
  for (std::uint64_t bits = 0; bits < (1ULL << in.size()); ++bits) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>((bits >> i) & 1);
    }
    if (r.circuit.outputs_satisfied(r.circuit.eval(in))) ++got;
  }
  EXPECT_EQ(got, expected);
}

TEST(TransformSignatures, NorRecovered) {
  // f <-> ~(a | b): clauses (~f|~a)(~f|~b)(f|a|b); f = var 3.
  const auto f = cnf::parse_dimacs_string("p cnf 3 3\n-3 -1 0\n-3 -2 0\n3 1 2 0\n");
  const auto r = transform::transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  EXPECT_EQ(solver::count_models(f), 4u);
}

TEST(TransformSignatures, ImplicationBlockIsBufferLike) {
  // (a -> b) alone is under-specified (no equivalence): must flush, not
  // invent a gate.
  const auto f = cnf::parse_dimacs_string("p cnf 2 1\n-1 2 0\n");
  const auto r = transform::transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 0u);
  EXPECT_EQ(r.stats.n_flushed_blocks, 1u);
  std::uint64_t got = 0;
  std::vector<std::uint8_t> in(r.circuit.n_inputs());
  for (std::uint64_t bits = 0; bits < (1ULL << in.size()); ++bits) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<std::uint8_t>((bits >> i) & 1);
    }
    if (r.circuit.outputs_satisfied(r.circuit.eval(in))) ++got;
  }
  EXPECT_EQ(got, 3u);
}

TEST(TransformSignatures, XnorSignatureRecovered) {
  // f <-> (a XNOR b): 4 clauses; f = var 3.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 3 4\n3 1 2 0\n3 -1 -2 0\n-3 -1 2 0\n-3 1 -2 0\n");
  const auto r = transform::transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 1u);
  EXPECT_EQ(solver::count_models(f), 4u);
}

TEST(TransformSignatures, TwoIndependentGatesDifferentBlocks) {
  // Two disjoint inverter definitions: two blocks, two gates.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 4 4\n2 1 0\n-2 -1 0\n4 3 0\n-4 -3 0\n");
  const auto r = transform::transform_cnf(f);
  EXPECT_EQ(r.stats.n_gate_definitions, 2u);
  EXPECT_EQ(r.circuit.outputs().size(), 0u);  // nothing constrained
}

// --- expression engine: XOR-heavy corners ----------------------------------------

TEST(ExprXor, WideXorSimplifyStaysCheap) {
  expr::Manager mgr;
  std::vector<expr::ExprId> vars;
  for (std::uint32_t v = 0; v < 6; ++v) vars.push_back(mgr.var(v));
  const expr::ExprId wide = mgr.mk_xor(std::vector<expr::ExprId>(vars));
  // 6-input XOR: 5 ops; QM-based SOP resynthesis would need 32 cubes — the
  // simplifier must keep the XOR form.
  const expr::ExprId simplified = mgr.simplify(wide);
  EXPECT_EQ(mgr.op_count_2input(simplified), 5u);
  EXPECT_TRUE(mgr.equivalent(wide, simplified));
}

TEST(ExprXor, NestedXorParityFolds) {
  expr::Manager mgr;
  const auto a = mgr.var(0);
  const auto b = mgr.var(1);
  // ((a ^ b) ^ (a ^ b)) == 0 ; ((a ^ b) ^ a) == b.
  EXPECT_EQ(mgr.mk_xor2(mgr.mk_xor2(a, b), mgr.mk_xor2(a, b)), mgr.const0());
  EXPECT_EQ(mgr.mk_xor2(mgr.mk_xor2(a, b), a), b);
}

// --- harvester / run-options corners ---------------------------------------------

TEST(GdHarvest, PartialWordBatchMasksTailLanes) {
  // batch = 65: the second word has one valid lane; counts must not include
  // phantom lanes 1..63 of that word.
  const auto f = cnf::parse_dimacs_string("p cnf 2 1\n1 2 0\n");
  sampler::GradientConfig config;
  config.batch = 65;
  config.policy = tensor::Policy::kSerial;
  config.max_rounds = 1;
  sampler::GradientSampler sampler(config);
  sampler::RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = -1.0;
  const auto result = sampler.run(f, options);
  EXPECT_LE(result.n_valid, 65u * 6);  // <= batch x collects per round
}

TEST(GdHarvest, StoreAllDrawsKeepsDuplicates) {
  const auto f = cnf::parse_dimacs_string("p cnf 2 1\n1 2 0\n");  // 3 models
  sampler::GradientConfig config;
  config.batch = 512;
  config.policy = tensor::Policy::kSerial;
  config.max_rounds = 2;
  sampler::GradientSampler sampler(config);

  sampler::RunOptions unique_only;
  unique_only.min_solutions = 0;
  unique_only.budget_ms = -1.0;
  unique_only.store_limit = 100000;
  const auto r1 = sampler.run(f, unique_only);
  EXPECT_LE(r1.solutions.size(), 3u);

  sampler::RunOptions all_draws = unique_only;
  all_draws.store_all_draws = true;
  const auto r2 = sampler.run(f, all_draws);
  EXPECT_GT(r2.solutions.size(), 3u);
  EXPECT_EQ(r2.solutions.size(), r2.n_valid);
}

// --- golden determinism of full sampling runs ---------------------------------------
//
// Every engine policy executes the compiled plan in the same order (forward
// in plan order, backward in reverse plan order) inside each 64-row tile —
// so a fixed-seed sampling run must reproduce the *exact* solution stream
// regardless of scheduling policy or machine thread count.
// The harvester's two-phase collect preserves this through the discrete half
// of the loop.  With store_limit above the unique yield the stored stream
// *is* the unique-solution fingerprint (every new unique is stored, in bank
// insertion order), so element-wise stream equality pins the whole pipeline.

TEST(GoldenDeterminism, FixedSeedRunsReproduceFingerprintsAcrossPolicies) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  for (const auto& name : {"or-50-10-7-UC-10", "75-10-1-q"}) {
    const auto instance = benchgen::make_instance(name, gen);
    constexpr tensor::Policy kPolicies[] = {tensor::Policy::kSerial,
                                            tensor::Policy::kDataParallel};
    bool have_reference = false;
    sampler::RunResult reference;
    std::vector<std::size_t> reference_curve;
    for (const tensor::Policy policy : kPolicies) {
      sampler::GradientConfig config;
      config.batch = 256;
      config.policy = policy;
      config.max_rounds = 2;
      sampler::GradientSampler sampler(config);
      sampler::RunOptions options;
      options.min_solutions = 0;   // only the round budget stops the run
      options.budget_ms = -1.0;    // no deadline: rounds are the only clock
      options.store_limit = 1 << 20;
      options.verify_against_cnf = true;
      options.seed = 0x90dd;
      const sampler::RunResult result = sampler.run(instance.formula, options);
      EXPECT_EQ(result.n_invalid, 0u) << name;
      if (!have_reference) {
        have_reference = true;
        reference = result;
        reference_curve = sampler.extras().uniques_per_iteration;
        EXPECT_GT(reference.n_valid, 0u) << name;
        continue;
      }
      EXPECT_EQ(result.n_unique, reference.n_unique)
          << name << " policy " << tensor::policy_name(policy);
      EXPECT_EQ(result.n_valid, reference.n_valid)
          << name << " policy " << tensor::policy_name(policy);
      ASSERT_EQ(result.solutions, reference.solutions)
          << name << " policy " << tensor::policy_name(policy);
      EXPECT_EQ(sampler.extras().uniques_per_iteration, reference_curve)
          << name << " policy " << tensor::policy_name(policy);
    }
  }
}

TEST(GoldenDeterminism, RepeatedRunsReproduceExactly) {
  // Same config twice (tile-parallel, the policy with the most scheduling
  // freedom): the stream must be bit-identical run to run.
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  const auto instance = benchgen::make_instance("75-10-1-q", gen);
  sampler::GradientConfig config;
  config.batch = 256;
  config.policy = tensor::Policy::kDataParallel;
  config.max_rounds = 2;
  sampler::RunOptions options;
  options.min_solutions = 0;
  options.budget_ms = -1.0;
  options.store_limit = 1 << 20;
  options.seed = 0x90dd;
  sampler::GradientSampler a(config);
  sampler::GradientSampler b(config);
  const sampler::RunResult ra = a.run(instance.formula, options);
  const sampler::RunResult rb = b.run(instance.formula, options);
  EXPECT_EQ(ra.n_unique, rb.n_unique);
  EXPECT_EQ(ra.n_valid, rb.n_valid);
  ASSERT_EQ(ra.solutions, rb.solutions);
}

// --- stream fingerprints pinned across commits ------------------------------------
//
// The golden tests above compare policies and repeated runs within one
// build, so a change that moves every stream alike passes them.  These pin
// the streams themselves: each constant is an FNV-1a hash of (n_unique,
// n_valid, stored stream) recorded from an earlier commit, so a change to
// any RNG draw, harvest order or stop point changes a hash.  Every run
// stops on max_rounds or a unique target, never on a deadline, so no hash
// depends on machine speed.  Re-record a hash only for a deliberate stream
// change; a compiler or build type that disagrees is a bug to report.

std::uint64_t stream_fingerprint(std::uint64_t n_unique, std::uint64_t n_valid,
                                 const std::vector<cnf::Assignment>& stream) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix_byte = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  };
  auto mix_word = [&mix_byte](std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>(word >> shift));
    }
  };
  mix_word(n_unique);
  mix_word(n_valid);
  mix_word(stream.size());
  for (const cnf::Assignment& assignment : stream) {
    mix_word(assignment.size());
    for (const std::uint8_t bit : assignment) mix_byte(bit);
  }
  return hash;
}

std::uint64_t stream_fingerprint(const sampler::RunResult& result) {
  return stream_fingerprint(result.n_unique, result.n_valid, result.solutions);
}

/// No deadline: only max_rounds or `target` uniques may stop a run.
sampler::RunOptions fingerprint_options(std::size_t target = 0) {
  sampler::RunOptions options;
  options.min_solutions = target;
  options.budget_ms = -1.0;
  options.store_limit = 1 << 20;
  options.verify_against_cnf = true;
  options.seed = 0x90dd;
  return options;
}

benchgen::Instance fingerprint_instance(const char* name) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  return benchgen::make_instance(name, gen);
}

sampler::GradientConfig fingerprint_config() {
  sampler::GradientConfig config;
  config.batch = 256;
  config.max_rounds = 2;
  return config;
}

TEST(GoldenFingerprint, GradientSamplerSerialAndTiles) {
  const struct {
    const char* name;
    std::uint64_t expected;
  } kCases[] = {{"or-50-10-7-UC-10", 0xd0fc855d317a7509ULL},
                {"75-10-1-q", 0xc2c2a557bf7e88a4ULL}};
  for (const auto& c : kCases) {
    const benchgen::Instance instance = fingerprint_instance(c.name);
    for (const tensor::Policy policy :
         {tensor::Policy::kSerial, tensor::Policy::kDataParallel}) {
      sampler::GradientConfig config = fingerprint_config();
      config.policy = policy;
      sampler::GradientSampler sampler(config);
      const sampler::RunResult result =
          sampler.run(instance.formula, fingerprint_options());
      EXPECT_EQ(result.n_invalid, 0u) << c.name;
      EXPECT_EQ(stream_fingerprint(result), c.expected)
          << c.name << " policy " << tensor::policy_name(policy);
    }
  }
}

TEST(GoldenFingerprint, GradientSamplerAmplifiedWithPlateauRestarts) {
  const benchgen::Instance instance = fingerprint_instance("s15850a_3_2");
  sampler::GradientConfig config = fingerprint_config();
  config.batch = 128;
  config.learning_rate = 40.0f;  // overshoots enough for some rows to stall
  config.amplify.enabled = true;
  config.amplify.max_bases_per_collect = 8;
  config.restart_plateau = 2;
  sampler::GradientSampler sampler(config);
  const sampler::RunResult result =
      sampler.run(instance.formula, fingerprint_options());
  EXPECT_EQ(result.n_invalid, 0u);
  EXPECT_GT(sampler.extras().amplified_uniques, 0u);
  EXPECT_GT(sampler.extras().plateau_restarted_rows, 0u);
  EXPECT_EQ(stream_fingerprint(result), 0x2a40329768e30a8aULL);
}

TEST(GoldenFingerprint, GradientSamplerProjectedDiversityWeighted) {
  benchgen::Instance instance = fingerprint_instance("75-10-1-q");
  std::vector<cnf::Var> set;
  for (cnf::Var v = 0; v < 12; ++v) set.push_back(v);
  instance.formula.set_sampling_set(set);  // what a 'c ind 1 .. 12' line sets
  sampler::GradientConfig config = fingerprint_config();
  config.max_rounds = 3;
  config.diversity_restart = true;
  config.lit_weights = {{0, false, 0.5f}, {3, true, 1.0f}};
  sampler::GradientSampler sampler(config);
  const sampler::RunResult result =
      sampler.run(instance.formula, fingerprint_options());
  EXPECT_EQ(result.n_invalid, 0u);
  EXPECT_GT(sampler.extras().weighted_inputs, 0u);
  EXPECT_GT(sampler.extras().diversity_restarted_rows, 0u);
  EXPECT_EQ(stream_fingerprint(result), 0x828cb568a106734ULL);
}

TEST(GoldenFingerprint, CircuitSampler) {
  const benchgen::Instance instance = fingerprint_instance("75-10-1-q");
  const transform::Result transformed = transform::transform_cnf(instance.formula);
  sampler::CircuitSamplerConfig config;
  config.batch = 256;
  config.max_rounds = 2;
  sampler::CircuitSampler sampler(transformed.circuit, config);
  const sampler::RunResult result = sampler.run(fingerprint_options());
  EXPECT_GT(result.n_unique, 0u);
  EXPECT_EQ(stream_fingerprint(result), 0xc130e9fd3f031d83ULL);
}

TEST(GoldenFingerprint, DiffSampler) {
  // A unique target stops the run, in its first round; the round cap only
  // bounds it (a run needs a bound that fires on every formula).
  const benchgen::Instance instance = fingerprint_instance("or-50-10-7-UC-10");
  baselines::DiffSamplerConfig config;
  config.batch = 256;
  config.max_rounds = 10;
  baselines::DiffSampler sampler(config);
  const sampler::RunResult result =
      sampler.run(instance.formula, fingerprint_options(10));
  EXPECT_GE(result.n_unique, 10u);
  EXPECT_EQ(result.n_invalid, 0u);
  EXPECT_EQ(stream_fingerprint(result), 0xad8c9245e3be32faULL);
}

TEST(GoldenFingerprint, ServiceJobs) {
  // Service jobs hash (n_unique, rows_validated, delivered stream): JobStats
  // has no n_valid.  Each job stops on its unique target.
  const benchgen::Instance instance = fingerprint_instance("or-50-10-7-UC-10");
  service::Server server({.n_workers = 2});
  auto request = [&] {
    service::SamplingRequest r;
    r.formula = instance.formula;
    r.seed = 0x90dd;
    r.target_uniques = 40;
    r.config.batch = 128;
    return r;
  };
  service::SamplingRequest plain = request();
  service::SamplingRequest projected = request();
  for (cnf::Var v = 0; v < 10; ++v) projected.sampling_set.push_back(v);
  projected.target_uniques = 20;
  service::SamplingRequest amplified = request();
  amplified.config.amplify.enabled = true;
  const struct {
    const char* what;
    service::SamplingRequest request;
    std::uint64_t expected;
  } kCases[] = {{"plain", plain, 0x4b28d9aee6c8c90dULL},
                {"projected", projected, 0x341a3bd48b333f26ULL},
                {"amplified", amplified, 0x722f58b154c5840eULL}};
  for (const auto& c : kCases) {
    const service::JobHandle handle = server.submit(c.request);
    EXPECT_EQ(handle.wait(), service::JobStatus::kCompleted) << c.what;
    std::vector<cnf::Assignment> stream;
    cnf::Assignment assignment;
    while (handle.stream().next(assignment)) stream.push_back(assignment);
    const service::JobStats stats = handle.stats();
    EXPECT_EQ(stream_fingerprint(stats.n_unique, stats.rows_validated, stream),
              c.expected)
        << c.what;
  }
}

// --- solver agreement on benchmark-family instances --------------------------------

TEST(SolverFamilies, CdclSolvesEveryTinyFamilyInstance) {
  benchgen::GenOptions gen;
  gen.scale = 0.02;
  for (const auto& name : benchgen::table2_names()) {
    const auto instance = benchgen::make_instance(name, gen);
    cnf::Assignment model;
    ASSERT_EQ(solver::solve_formula(instance.formula, &model), solver::Status::kSat)
        << name;
    EXPECT_TRUE(instance.formula.satisfied_by(model)) << name;
  }
}

TEST(SolverFamilies, WalkSatSolvesOrFamily) {
  const auto instance = benchgen::make_instance("or-50-10-7-UC-10");
  solver::WalkSatConfig config;
  config.max_flips = 500000;
  solver::WalkSat walksat(instance.formula, config);
  const auto model = walksat.search();
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(instance.formula.satisfied_by(*model));
}

TEST(SolverFamilies, BlockingEnumerationMatchesBruteOnFig1) {
  // The Fig. 1 demo instance has exactly 32 models; CDCL enumeration with
  // blocking clauses must find them all.
  const auto f = cnf::parse_dimacs_string(
      "p cnf 14 21\n-1 -2 0\n1 2 0\n-2 3 0\n2 -3 0\n-3 4 0\n3 -4 0\n"
      "-4 -11 5 0\n-4 11 -5 0\n4 -12 5 0\n4 12 -5 0\n-6 7 0\n6 -7 0\n"
      "-7 8 0\n7 -8 0\n-8 -9 0\n8 9 0\n-9 -13 10 0\n-9 13 -10 0\n"
      "9 -14 10 0\n9 14 -10 0\n10 0\n");
  solver::CdclSolver solver;
  solver.add_formula(f);
  std::size_t count = 0;
  while (solver.solve() == solver::Status::kSat) {
    ++count;
    ASSERT_LE(count, 32u);
    if (!solver.block_model()) break;
  }
  EXPECT_EQ(count, 32u);
}

// --- Tseitin signature shape checks --------------------------------------------------

TEST(TseitinShapes, NandNorClauseCounts) {
  circuit::Circuit c;
  const auto a = c.add_input();
  const auto b = c.add_input();
  const auto d = c.add_input();
  (void)c.add_gate(circuit::GateType::kNand, {a, b, d});
  const auto enc = circuit::tseitin_encode(c);
  // n-input NAND: 1 wide + n binaries.
  EXPECT_EQ(enc.formula.n_clauses(), 4u);
  // Every input assignment has exactly one consistent completion.
  EXPECT_EQ(solver::count_models(enc.formula), 8u);
}

TEST(TseitinShapes, RoundTripThroughTransformShrinks) {
  // Tseitin then Algorithm 1 must come back to about the original size for
  // each family (the whole premise of the paper).
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  for (const auto& name : {"or-50-10-7-UC-10", "75-10-1-q"}) {
    const auto instance = benchgen::make_instance(name, gen);
    const auto r = transform::transform_cnf(instance.formula);
    const double recovered = static_cast<double>(r.circuit.n_gates());
    const double original = static_cast<double>(instance.circuit.n_gates());
    EXPECT_LT(recovered, original * 1.5) << name;
  }
}

}  // namespace
}  // namespace hts
