// Differential test harness for the word-parallel harvest pipeline.
//
// The compiled evaluator (circuit::EvalPlan) must be bit-identical to the
// scalar interpreter (Circuit::eval64) and to single-assignment evaluation
// (Circuit::eval) on *any* circuit — fuzzed here over seeded random circuits
// covering every gate type, n-ary fanins with duplicates, constants, BUF
// chains, and random output constraints — and the rewritten Harvester must
// reproduce the historical scalar unpack -> eval64 -> mask -> project
// pipeline result for result (counts, bank content, stored solutions, and
// solved masks) on the four benchgen families.
//
// The accept phase's transposed 64-row keys are checked against the per-row
// gather they replace, full and projected, at input counts around each
// key-word boundary.
//
// The suite also pins the harvester's no-allocation contract: after the
// first collect() of a batch shape, repeated harvests perform zero heap
// allocations (measured by a global operator-new counting hook).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <iterator>
#include <new>
#include <set>
#include <string_view>
#include <vector>

#include "benchgen/families.hpp"
#include "circuit/circuit.hpp"
#include "circuit/eval_plan.hpp"
#include "core/harvester.hpp"
#include "core/unique_bank.hpp"
#include "transform/transform.hpp"
#include "util/rng.hpp"

// --- global allocation counting hook ----------------------------------------
// Counts every operator-new in the test binary; tests snapshot the counter
// around a code region to assert it allocates nothing.  Deallocation
// functions must pair up for ASan builds, hence the full set of overloads.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The replacement pair is internally consistent (new -> malloc, delete ->
// free), but GCC/Clang pair call sites against the *declared* global
// operator new and flag the free() as mismatched.
#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must be replaced too: libstdc++'s temporary buffers
// (std::stable_sort et al.) allocate through them but deallocate through the
// plain/sized operator delete, so a half-replaced set would pair the default
// allocator with our free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hts {
namespace {

// --- seeded random circuits --------------------------------------------------

circuit::Circuit random_circuit(util::Rng& rng) {
  circuit::Circuit c;
  const std::size_t n_inputs = 1 + rng.next_below(32);
  const std::size_t n_gates = rng.next_below(150);
  for (std::size_t i = 0; i < n_inputs; ++i) (void)c.add_input();
  if (rng.next_bool(0.5)) (void)c.add_const(false);
  if (rng.next_bool(0.5)) (void)c.add_const(true);

  constexpr circuit::GateType kTypes[] = {
      circuit::GateType::kBuf,  circuit::GateType::kNot,
      circuit::GateType::kAnd,  circuit::GateType::kOr,
      circuit::GateType::kXor,  circuit::GateType::kNand,
      circuit::GateType::kNor,  circuit::GateType::kXnor};
  for (std::size_t g = 0; g < n_gates; ++g) {
    const circuit::GateType type = kTypes[rng.next_below(std::size(kTypes))];
    const auto n_signals = static_cast<std::uint64_t>(c.n_signals());
    std::size_t n_fanins = 1;
    if (type != circuit::GateType::kBuf && type != circuit::GateType::kNot) {
      // 1-ary n-ary gates are a corner the binarizer must fold to NOT/COPY;
      // duplicate fanins exercise commutative reassociation.
      n_fanins = 1 + rng.next_below(6);
    }
    std::vector<circuit::SignalId> fanins;
    fanins.reserve(n_fanins);
    for (std::size_t f = 0; f < n_fanins; ++f) {
      fanins.push_back(static_cast<circuit::SignalId>(rng.next_below(n_signals)));
    }
    (void)c.add_gate(type, std::move(fanins));
  }
  const std::size_t n_outputs = rng.next_below(6);
  for (std::size_t o = 0; o < n_outputs; ++o) {
    c.add_output(static_cast<circuit::SignalId>(
                     rng.next_below(static_cast<std::uint64_t>(c.n_signals()))),
                 rng.next_bool());
  }
  return c;
}

std::vector<std::uint64_t> random_words(util::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng.next_u64();
  return words;
}

// --- fuzz: compiled evaluator vs scalar eval64 vs single-row eval -----------

TEST(HarvestDiff, CompiledEvaluatorMatchesScalarOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    const circuit::Circuit c = random_circuit(rng);
    const circuit::EvalPlan plan(c);
    ASSERT_GE(plan.n_slots(), c.n_signals()) << "seed " << seed;

    const std::vector<std::uint64_t> inputs = random_words(rng, c.n_inputs());
    const std::vector<std::uint64_t> scalar = c.eval64(inputs);
    const std::vector<std::uint64_t> compiled = plan.eval64(inputs);
    ASSERT_EQ(scalar.size(), compiled.size()) << "seed " << seed;
    for (circuit::SignalId s = 0; s < scalar.size(); ++s) {
      ASSERT_EQ(scalar[s], compiled[s])
          << "seed " << seed << " signal " << s << " ("
          << circuit::gate_type_name(c.gate(s).type) << ")";
    }

    // Single-assignment evaluation agrees lane by lane.
    for (const std::size_t r : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
      std::vector<std::uint8_t> bits(c.n_inputs());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = static_cast<std::uint8_t>((inputs[i] >> r) & 1ULL);
      }
      const std::vector<std::uint8_t> row = c.eval(bits);
      for (circuit::SignalId s = 0; s < row.size(); ++s) {
        ASSERT_EQ(row[s], static_cast<std::uint8_t>((compiled[s] >> r) & 1ULL))
            << "seed " << seed << " signal " << s << " row " << r;
      }
    }
  }
}

TEST(HarvestDiff, BlockEvaluationMatchesScalarPerWordIncludingPartialBlocks) {
  // 7 words = one full 4-word block plus a 3-word tail; the packed layout is
  // the harden() one (packed[input * n_words + w]).
  constexpr std::size_t kWords = 7;
  for (std::uint64_t seed = 100; seed <= 130; ++seed) {
    util::Rng rng(seed);
    const circuit::Circuit c = random_circuit(rng);
    const circuit::EvalPlan plan(c);
    const std::vector<std::uint64_t> packed =
        random_words(rng, c.n_inputs() * kWords);

    std::vector<std::uint64_t> slots(plan.scratch_words());
    std::vector<std::uint64_t> word_inputs(c.n_inputs());
    for (std::size_t w0 = 0; w0 < kWords; w0 += circuit::EvalPlan::kBlockWords) {
      const std::size_t count =
          std::min(circuit::EvalPlan::kBlockWords, kWords - w0);
      plan.eval_block(packed.data(), kWords, w0, count, slots.data());
      for (std::size_t lane = 0; lane < count; ++lane) {
        const std::size_t w = w0 + lane;
        for (std::size_t i = 0; i < c.n_inputs(); ++i) {
          word_inputs[i] = packed[i * kWords + w];
        }
        const std::vector<std::uint64_t> scalar = c.eval64(word_inputs);
        for (circuit::SignalId s = 0; s < scalar.size(); ++s) {
          ASSERT_EQ(scalar[s],
                    circuit::EvalPlan::signal_word(slots.data(), s, lane))
              << "seed " << seed << " word " << w << " signal " << s;
        }
        ASSERT_EQ(c.outputs_satisfied64(scalar),
                  plan.satisfied(slots.data(), lane))
            << "seed " << seed << " word " << w;
      }
    }
  }
}

TEST(HarvestDiff, PlanRunsAreOpcodeUniformAndCoverThePlan) {
  for (std::uint64_t seed = 200; seed <= 220; ++seed) {
    util::Rng rng(seed);
    const circuit::Circuit c = random_circuit(rng);
    const circuit::EvalPlan eval_plan(c);
    const auto& plan = eval_plan.plan();
    if (plan.n_ops() == 0) {
      EXPECT_EQ(plan.n_runs(), 0u) << "seed " << seed;
      continue;
    }
    EXPECT_GE(plan.n_runs(), 1u) << "seed " << seed;
    EXPECT_LE(plan.n_runs(), plan.n_ops()) << "seed " << seed;
    EXPECT_GE(plan.max_run_length(), 1u) << "seed " << seed;
    EXPECT_LE(plan.max_run_length(), plan.n_ops()) << "seed " << seed;
    EXPECT_GE(plan.n_levels(), 1u) << "seed " << seed;
  }
}

// --- end-to-end: Harvester vs the historical scalar pipeline ----------------

/// The pre-EvalPlan Harvester::collect, kept verbatim as the reference
/// implementation: per word, unpack the inputs, interpret the circuit with
/// eval64, mask, then project accepted rows.
struct ScalarReference {
  const sampler::GdProblem& problem;
  const cnf::Formula& formula;
  const sampler::RunOptions& options;
  sampler::UniqueBank& bank;
  sampler::RunResult& result;
  std::vector<std::uint64_t> solved_mask;

  void collect(const std::vector<std::uint64_t>& packed, std::size_t n_words,
               std::size_t batch) {
    const circuit::Circuit& circuit = *problem.circuit;
    const std::size_t n_inputs = circuit.n_inputs();
    std::vector<std::uint64_t> input_words(n_inputs);
    solved_mask.assign(n_words, 0);
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t i = 0; i < n_inputs; ++i) {
        input_words[i] = packed[i * n_words + w];
      }
      const std::vector<std::uint64_t> values = circuit.eval64(input_words);
      std::uint64_t ok = circuit.outputs_satisfied64(values);
      const std::size_t rows_here = std::min<std::size_t>(64, batch - w * 64);
      if (rows_here < 64) ok &= (1ULL << rows_here) - 1;
      solved_mask[w] = ok;
      while (ok != 0) {
        const int r = std::countr_zero(ok);
        ok &= ok - 1;
        accept_row(input_words, values, static_cast<std::size_t>(r));
      }
    }
  }

  void accept_row(const std::vector<std::uint64_t>& input_words,
                  const std::vector<std::uint64_t>& values, std::size_t r) {
    std::vector<std::uint64_t> key(bank.n_words(), 0);
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      if (((input_words[i] >> r) & 1ULL) != 0) key[i >> 6] |= (1ULL << (i & 63));
    }
    ++result.n_valid;
    const bool is_new = bank.insert(key.data());
    if (!is_new && !options.store_all_draws) return;
    const bool want_assignment =
        result.solutions.size() < options.store_limit ||
        (is_new && options.verify_against_cnf);
    if (!want_assignment) return;
    const auto& var_signal = *problem.var_signal;
    cnf::Assignment assignment(var_signal.size(), 0);
    for (cnf::Var v = 0; v < var_signal.size(); ++v) {
      assignment[v] =
          static_cast<std::uint8_t>((values[var_signal[v]] >> r) & 1ULL);
    }
    if (options.verify_against_cnf && !formula.satisfied_by(assignment)) {
      ++result.n_invalid;
    }
    if (result.solutions.size() < options.store_limit) {
      result.solutions.push_back(std::move(assignment));
    }
  }
};

class HarvestFamilies : public ::testing::TestWithParam<const char*> {};

TEST_P(HarvestFamilies, HarvesterMatchesScalarPipelineEndToEnd) {
  benchgen::GenOptions gen;
  gen.scale = 0.05;
  const benchgen::Instance instance = benchgen::make_instance(GetParam(), gen);
  const transform::Result transformed =
      transform::transform_cnf(instance.formula);
  sampler::GdProblem problem;
  problem.circuit = &transformed.circuit;
  problem.var_signal = &transformed.var_signal;

  sampler::RunOptions options;
  options.store_limit = 100000;
  options.verify_against_cnf = true;

  // Random hardened batches (uniform bits satisfy often enough on these
  // scaled instances to exercise the accept path), including a partial final
  // word: batch 300 rows over 5 words.
  constexpr std::size_t kWords = 5;
  constexpr std::size_t kBatch = 300;
  util::Rng rng(0xd1ff + std::string_view(GetParam()).size());
  const std::vector<std::uint64_t> packed =
      random_words(rng, transformed.circuit.n_inputs() * kWords);

  sampler::RunResult ref_result;
  sampler::UniqueBank ref_bank(transformed.circuit.n_inputs());
  ScalarReference reference{problem, instance.formula, options, ref_bank,
                            ref_result, {}};

  sampler::RunResult new_result;
  sampler::UniqueBank new_bank(transformed.circuit.n_inputs());
  sampler::Harvester<sampler::UniqueBank> harvester(
      problem, instance.formula, options, new_bank, new_result);

  // Two rounds over the same packed data: the second exercises the
  // duplicate-heavy path and the reused scratch.
  for (int round = 0; round < 2; ++round) {
    reference.collect(packed, kWords, kBatch);
    harvester.collect(packed, kWords, kBatch);
    ASSERT_EQ(reference.solved_mask, harvester.last_solved())
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_result.n_valid, new_result.n_valid)
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_result.n_invalid, new_result.n_invalid)
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_bank.size(), new_bank.size())
        << GetParam() << " round " << round;
    ASSERT_EQ(ref_result.solutions, new_result.solutions)
        << GetParam() << " round " << round;
  }
  EXPECT_EQ(new_result.n_invalid, 0u) << GetParam();
  EXPECT_EQ(harvester.rows_validated(), 2 * kBatch) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HarvestFamilies,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// --- transposed row keys vs the per-row gather --------------------------------

/// The per-row gather the accept phase used to run: bit b of row r's key is
/// bit r of column(b).
template <typename Column>
std::vector<std::uint64_t> gather_row_key(std::size_t n_bits, Column&& column,
                                          std::size_t r) {
  std::vector<std::uint64_t> key((n_bits + 63) / 64, 0);
  for (std::size_t b = 0; b < n_bits; ++b) {
    if (((column(b) >> r) & 1ULL) != 0) key[b >> 6] |= 1ULL << (b & 63);
  }
  return key;
}

// Input counts on both sides of each key-word boundary; the batch (300 rows,
// 5 words) ends in a partial word.
constexpr std::size_t kKeyInputCounts[] = {1, 63, 64, 65, 130};
constexpr std::size_t kKeyWords = 5;
constexpr std::size_t kKeyBatch = 300;

TEST(HarvestDiff, TransposedKeysMatchPerRowGather) {
  for (const std::size_t n_inputs : kKeyInputCounts) {
    util::Rng rng(500 + n_inputs);
    const std::vector<std::uint64_t> packed =
        random_words(rng, n_inputs * kKeyWords);
    const std::size_t key_words = (n_inputs + 63) / 64;
    std::vector<std::uint64_t> keys(64 * key_words);
    for (std::size_t w = 0; w < kKeyWords; ++w) {
      auto column = [&](std::size_t i) { return packed[i * kKeyWords + w]; };
      sampler::detail::transpose_row_keys(n_inputs, column, keys.data());
      for (std::size_t r = 0; r < 64; ++r) {
        const std::vector<std::uint64_t> expect =
            gather_row_key(n_inputs, column, r);
        for (std::size_t k = 0; k < key_words; ++k) {
          ASSERT_EQ(keys[r * key_words + k], expect[k])
              << n_inputs << " inputs, word " << w << " row " << r;
        }
      }
    }
  }
}

/// n_inputs free inputs, variable v = input v, constrained by OR(first,
/// last) so about a quarter of the rows stay unsolved.
struct KeyHarness {
  explicit KeyHarness(std::size_t n_inputs) {
    for (std::size_t i = 0; i < n_inputs; ++i) {
      var_signal.push_back(circuit.add_input());
    }
    circuit.add_output(circuit.add_gate(circuit::GateType::kOr,
                                        {var_signal.front(),
                                         var_signal.back()}),
                       true);
    problem.circuit = &circuit;
    problem.var_signal = &var_signal;
  }
  circuit::Circuit circuit;
  std::vector<circuit::SignalId> var_signal;
  sampler::GdProblem problem;
};

// The harvester's accept phase against the per-row gather, end to end: the
// fresh-key sink must receive every new row's full key, word for word and in
// accept order; projected banks must hold exactly the reference projections
// (sampling sets whose variables cross input 64, and for 130 inputs a
// projection of two key words); and the diversity probes
// (banked_projection_mask, propose_fresh_neighbor) must answer as the
// per-row gather does.
TEST(HarvestDiff, AcceptKeysMatchPerRowGather) {
  for (const std::size_t n_inputs : kKeyInputCounts) {
    for (const bool projected : {false, true}) {
      if (projected && n_inputs < 65) continue;
      KeyHarness h(n_inputs);
      if (projected) {
        for (cnf::Var v = 0; v < n_inputs; ++v) {
          if (v % 3 != 1) h.problem.sampling_set.push_back(v);
        }
      }
      const std::vector<cnf::Var>& set = h.problem.sampling_set;
      const std::size_t n_bits = projected ? set.size() : n_inputs;
      util::Rng rng(900 + n_inputs);
      const std::vector<std::uint64_t> packed =
          random_words(rng, n_inputs * kKeyWords);

      const cnf::Formula formula;  // never consulted: verify_against_cnf off
      sampler::RunOptions options;
      options.store_limit = 0;
      sampler::RunResult result;
      sampler::UniqueBank bank(n_bits);
      sampler::HarvestMode mode;
      mode.projected = projected;
      mode.probe_projections = projected;
      sampler::Harvester<sampler::UniqueBank> harvester(
          h.problem, formula, options, bank, result, nullptr,
          /*inline_eval=*/true, mode);
      std::vector<std::uint64_t> fresh;
      harvester.set_fresh_sink(&fresh);
      harvester.collect(packed, kKeyWords, kKeyBatch);

      // Reference: the rows the circuit accepts, keyed by per-row gathers.
      std::set<std::vector<std::uint64_t>> banked;
      std::vector<std::uint64_t> expect_fresh;
      std::vector<std::vector<std::uint64_t>> proj_keys(kKeyBatch);
      for (std::size_t row = 0; row < kKeyBatch; ++row) {
        const std::size_t w = row / 64;
        const std::size_t r = row % 64;
        auto input = [&](std::size_t i) { return packed[i * kKeyWords + w]; };
        const std::vector<std::uint64_t> full = gather_row_key(n_inputs, input, r);
        proj_keys[row] = projected
                             ? gather_row_key(n_bits,
                                              [&](std::size_t k) {
                                                return input(set[k]);
                                              },
                                              r)
                             : full;
        const bool solved =
            ((input(0) | input(n_inputs - 1)) >> r & 1ULL) != 0;
        ASSERT_EQ(solved, (harvester.last_solved()[w] >> r & 1ULL) != 0);
        if (solved && banked.insert(proj_keys[row]).second) {
          expect_fresh.insert(expect_fresh.end(), full.begin(), full.end());
        }
      }
      ASSERT_EQ(fresh, expect_fresh) << n_inputs << " inputs, projected "
                                     << projected;
      ASSERT_EQ(bank.size(), banked.size());
      for (const std::vector<std::uint64_t>& key : banked) {
        ASSERT_TRUE(bank.contains(key.data()));
      }
      if (!projected) continue;

      const std::vector<std::uint64_t>& flagged =
          harvester.banked_projection_mask();
      util::Rng propose_rng(7);
      util::Rng reference_rng(7);
      for (std::size_t row = 0; row < kKeyBatch; ++row) {
        const std::size_t w = row / 64;
        const std::size_t r = row % 64;
        const bool solved = (harvester.last_solved()[w] >> r & 1ULL) != 0;
        ASSERT_EQ((flagged[w] >> r & 1ULL) != 0,
                  !solved && banked.count(proj_keys[row]) != 0)
            << n_inputs << " inputs, row " << row;
        // The same flip sequence over the gathered key.
        const std::uint64_t* pattern =
            harvester.propose_fresh_neighbor(w, r, propose_rng, /*tries=*/6);
        std::vector<std::uint64_t> expect;
        for (int t = 0; t < 6 && expect.empty(); ++t) {
          std::vector<std::uint64_t> candidate = proj_keys[row];
          for (int f = 0; f < 1 + t / 2; ++f) {
            const std::size_t k = reference_rng.next_below(n_bits);
            candidate[k >> 6] ^= 1ULL << (k & 63);
          }
          if (banked.count(candidate) == 0) expect = candidate;
        }
        ASSERT_EQ(pattern == nullptr, expect.empty()) << "row " << row;
        if (pattern != nullptr) {
          ASSERT_EQ(std::vector<std::uint64_t>(pattern, pattern + bank.n_words()),
                    expect)
              << n_inputs << " inputs, row " << row;
        }
      }
    }
  }
}

// --- repeated harvests allocate nothing -------------------------------------

TEST(HarvestDiff, RepeatedHarvestsDoNotAllocate) {
  // OR(a, b) constrained true: 3 of 4 input patterns satisfy, so the first
  // collect banks every reachable key and the second is pure duplicates.
  circuit::Circuit c;
  const auto a = c.add_input();
  const auto b = c.add_input();
  const auto o = c.add_gate(circuit::GateType::kOr, {a, b});
  c.add_output(o, true);
  const std::vector<circuit::SignalId> var_signal = {a, b};
  sampler::GdProblem problem;
  problem.circuit = &c;
  problem.var_signal = &var_signal;
  const cnf::Formula formula;  // never consulted: verify_against_cnf off

  sampler::RunOptions options;
  options.store_limit = 0;  // storing solutions may allocate by design

  sampler::RunResult result;
  sampler::UniqueBank bank(c.n_inputs());
  sampler::Harvester<sampler::UniqueBank> harvester(problem, formula, options,
                                                    bank, result);

  // One word (64 rows): a single block, so collect() stays on the inline
  // path regardless of the machine's thread count.
  util::Rng rng(77);
  const std::vector<std::uint64_t> packed = random_words(rng, c.n_inputs());
  harvester.collect(packed, 1, 64);
  ASSERT_GT(result.n_valid, 0u);
  ASSERT_GT(bank.size(), 0u);
  const std::size_t valid_per_round = result.n_valid;
  const std::size_t uniques = bank.size();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  harvester.collect(packed, 1, 64);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "repeated collect() performed heap allocations";
  EXPECT_EQ(result.n_valid, 2 * valid_per_round);
  EXPECT_EQ(bank.size(), uniques)
      << "second collect must re-observe exactly the first round's keys";
}

}  // namespace
}  // namespace hts
