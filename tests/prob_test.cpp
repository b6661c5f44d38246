// Tests for the probabilistic engine: Table I forward/derivative semantics,
// finite-difference gradient checks on random circuits, loss descent,
// hardening, cone-only compilation, serial/parallel equivalence, and the
// tile-resident memory model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hts::prob {
namespace {

using circuit::Circuit;
using circuit::GateType;
using circuit::SignalId;

// --- compilation -----------------------------------------------------------------

/// Raw (unoptimized) compilation, for asserting the gate-per-gate tape shape.
constexpr CompiledCircuit::Options kRaw{/*cone_only=*/false, /*optimize=*/false};

TEST(Compiled, BinarizesWideGates) {
  Circuit c;
  std::vector<SignalId> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(c.add_input());
  c.add_output(c.add_gate(GateType::kAnd, ins), true);
  const CompiledCircuit compiled(c, kRaw);
  // 4-input AND -> 3 binary AND ops.
  EXPECT_EQ(compiled.n_ops(), 3u);
  ASSERT_EQ(compiled.outputs().size(), 1u);
  EXPECT_FLOAT_EQ(compiled.outputs()[0].target, 1.0f);
}

TEST(Compiled, InvertedGatesAppendNot) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  c.add_output(c.add_gate(GateType::kNor, {a, b}), false);
  const CompiledCircuit raw(c, kRaw);
  EXPECT_EQ(raw.n_ops(), 2u);  // OR + NOT
  EXPECT_FLOAT_EQ(raw.outputs()[0].target, 0.0f);
}

TEST(Compiled, ConeOnlySkipsUnconstrainedLogic) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  (void)c.add_gate(GateType::kNot, {a});  // unconstrained cone
  const SignalId g = c.add_gate(GateType::kNot, {b});
  c.add_output(g, true);
  const CompiledCircuit full(c, kRaw);
  const CompiledCircuit cone(c, CompiledCircuit::Options{true, false});
  EXPECT_EQ(full.n_ops(), 2u);
  EXPECT_EQ(cone.n_ops(), 1u);
  EXPECT_EQ(cone.input_slot()[0], kNoSlot);  // input a outside the cone
  EXPECT_NE(cone.input_slot()[1], kNoSlot);
}

TEST(Compiled, ConstantsGetFixedSlots) {
  Circuit c;
  const SignalId k1 = c.add_const(true);
  c.add_output(k1, true);
  const CompiledCircuit compiled(c);
  ASSERT_EQ(compiled.const_slots().size(), 1u);
  EXPECT_FLOAT_EQ(compiled.const_slots()[0].value, 1.0f);
}

// --- tape optimizer --------------------------------------------------------------

TEST(Optimizer, FusesInvertedGatesIntoOneOp) {
  for (const GateType type : {GateType::kNand, GateType::kNor, GateType::kXnor}) {
    Circuit c;
    const SignalId a = c.add_input();
    const SignalId b = c.add_input();
    const SignalId g = c.add_gate(type, {a, b});
    c.add_output(g, true);
    const CompiledCircuit raw(c, kRaw);
    const CompiledCircuit opt(c);
    EXPECT_EQ(raw.n_ops(), 2u);
    ASSERT_EQ(opt.n_ops(), 1u);
    const OpCode fused = opt.tape()[0].op;
    EXPECT_TRUE(fused == OpCode::kAndNot || fused == OpCode::kOrNot ||
                fused == OpCode::kXnor);
    EXPECT_EQ(opt.opt_stats().nots_fused, 1u);
    EXPECT_NE(opt.signal_slot(g), kNoSlot);  // gate output stays addressable
  }
}

TEST(Optimizer, CopyPropagationCollapsesBufferChains) {
  // in -> buf -> buf -> buf -> NOT -> output: the copies vanish and the
  // buffered signals alias the source slot.
  Circuit c;
  const SignalId in = c.add_input();
  SignalId s = in;
  for (int i = 0; i < 3; ++i) s = c.add_gate(GateType::kBuf, {s});
  const SignalId n = c.add_gate(GateType::kNot, {s});
  c.add_output(n, true);
  const CompiledCircuit raw(c, kRaw);
  const CompiledCircuit opt(c);
  EXPECT_EQ(raw.n_ops(), 4u);
  EXPECT_EQ(opt.n_ops(), 1u);
  EXPECT_EQ(opt.opt_stats().copies_propagated, 3u);
  // The buffered signal aliases the input's slot.
  EXPECT_EQ(opt.signal_slot(s), opt.input_slot()[0]);
  EXPECT_LT(opt.n_slots(), raw.n_slots());
}

TEST(Optimizer, DeadLogicEliminated) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  (void)c.add_gate(GateType::kAnd, {a, b});  // feeds nothing
  c.add_output(c.add_gate(GateType::kOr, {a, b}), true);
  const CompiledCircuit opt(c);
  EXPECT_EQ(opt.n_ops(), 1u);
  EXPECT_EQ(opt.tape()[0].op, OpCode::kOr);
  EXPECT_EQ(opt.opt_stats().ops_dead, 1u);
}

TEST(Optimizer, ConstantAndFoldsToAlias) {
  // AND(x, 1) == x exactly, so the op disappears and the output reads the
  // input slot directly.
  Circuit c;
  const SignalId x = c.add_input();
  const SignalId k1 = c.add_const(true);
  const SignalId g = c.add_gate(GateType::kAnd, {x, k1});
  c.add_output(g, true);
  const CompiledCircuit opt(c);
  EXPECT_EQ(opt.n_ops(), 0u);
  ASSERT_EQ(opt.outputs().size(), 1u);
  EXPECT_EQ(static_cast<std::int32_t>(opt.outputs()[0].slot), opt.input_slot()[0]);
  // The unused constant slot is renumbered away.
  EXPECT_TRUE(opt.const_slots().empty());
}

TEST(Optimizer, ConstantNotFoldsToConst) {
  // NOT(const1) -> const 0; output becomes a constant slot with no tape ops.
  Circuit c;
  const SignalId k1 = c.add_const(true);
  const SignalId g = c.add_gate(GateType::kNot, {k1});
  c.add_output(g, false);
  const CompiledCircuit opt(c);
  EXPECT_EQ(opt.n_ops(), 0u);
  ASSERT_EQ(opt.const_slots().size(), 1u);
  EXPECT_FLOAT_EQ(opt.const_slots()[0].value, 0.0f);
  EXPECT_EQ(opt.outputs()[0].slot, opt.const_slots()[0].slot);
}

TEST(Optimizer, StatsTrackTapeAndSlotReduction) {
  // NAND chain with buffers: every optimization contributes.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId n1 = c.add_gate(GateType::kNand, {a, b});
  const SignalId buf = c.add_gate(GateType::kBuf, {n1});
  const SignalId n2 = c.add_gate(GateType::kNand, {buf, a});
  c.add_output(n2, true);
  const CompiledCircuit opt(c);
  const OptStats& stats = opt.opt_stats();
  EXPECT_EQ(stats.ops_before, 5u);  // 2x(AND+NOT) + copy
  EXPECT_EQ(stats.ops_after, 2u);   // 2x kAndNot
  EXPECT_EQ(stats.copies_propagated, 1u);
  EXPECT_EQ(stats.nots_fused, 2u);
  EXPECT_LT(stats.slots_after, stats.slots_before);
  EXPECT_EQ(opt.n_ops(), stats.ops_after);
  EXPECT_EQ(opt.n_slots(), stats.slots_after);
}

TEST(Optimizer, OptimizedForwardMatchesRawBitExactly) {
  // Mixed circuit exercising every rewrite; with the exact sigmoid the
  // optimized tape must reproduce raw output activations bit for bit.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId d = c.add_input();
  const SignalId nand1 = c.add_gate(GateType::kNand, {a, b});
  const SignalId buf = c.add_gate(GateType::kBuf, {nand1});
  const SignalId x1 = c.add_gate(GateType::kXnor, {buf, d});
  const SignalId k1 = c.add_const(true);
  const SignalId and1 = c.add_gate(GateType::kAnd, {x1, k1});
  (void)c.add_gate(GateType::kOr, {a, d});  // dead
  c.add_output(and1, true);
  c.add_output(c.add_gate(GateType::kNor, {x1, b}), false);

  const CompiledCircuit raw(c, kRaw);
  const CompiledCircuit opt(c);
  ASSERT_LT(opt.n_ops(), raw.n_ops());

  auto make_engine = [](const CompiledCircuit& compiled) {
    Engine::Config config;
    config.batch = 192;
    config.policy = tensor::Policy::kSerial;
    config.fast_sigmoid = false;
    return Engine(compiled, config);
  };
  Engine eng_raw = make_engine(raw);
  Engine eng_opt = make_engine(opt);
  util::Rng rng_a(2024);
  util::Rng rng_b(2024);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  eng_raw.forward_only();
  eng_opt.forward_only();
  ASSERT_EQ(raw.outputs().size(), opt.outputs().size());
  for (std::size_t k = 0; k < raw.outputs().size(); ++k) {
    for (std::size_t r = 0; r < 192; ++r) {
      const float y_raw = eng_raw.activation(raw.outputs()[k].slot, r);
      const float y_opt = eng_opt.activation(opt.outputs()[k].slot, r);
      ASSERT_EQ(y_raw, y_opt) << "output " << k << " row " << r;
    }
  }
  EXPECT_EQ(eng_raw.last_loss(), eng_opt.last_loss());
}

// --- engine forward semantics (Table I) ---------------------------------------------

class TableIFixture : public ::testing::Test {
 protected:
  /// Builds a 2-input gate circuit, sets P1/P2 via logit, runs forward, and
  /// returns the output activation.
  float forward_gate(GateType type, float p1, float p2) {
    Circuit c;
    const SignalId a = c.add_input();
    const SignalId b = c.add_input();
    const SignalId g = c.add_gate(type, {a, b});
    c.add_output(g, true);
    const CompiledCircuit compiled(c);
    Engine::Config config;
    config.batch = 1;
    config.policy = tensor::Policy::kSerial;
    config.compute_loss = true;
    Engine engine(compiled, config);
    engine.set_v(0, 0, logit(p1));
    engine.set_v(1, 0, logit(p2));
    engine.forward_only();
    return engine.activation(
        static_cast<std::uint32_t>(compiled.signal_slot(g)), 0);
  }

  static float logit(float p) { return std::log(p / (1.0f - p)); }
};

TEST_F(TableIFixture, AndIsProduct) {
  EXPECT_NEAR(forward_gate(GateType::kAnd, 0.3f, 0.7f), 0.21f, 1e-4f);
}

TEST_F(TableIFixture, OrIsInclusionExclusion) {
  EXPECT_NEAR(forward_gate(GateType::kOr, 0.3f, 0.7f), 1.0f - 0.7f * 0.3f, 1e-4f);
}

TEST_F(TableIFixture, XorIsDisagreementProbability) {
  EXPECT_NEAR(forward_gate(GateType::kXor, 0.3f, 0.7f),
              0.3f * 0.3f + 0.7f * 0.7f, 1e-4f);
}

TEST_F(TableIFixture, XnorComplementsXor) {
  EXPECT_NEAR(forward_gate(GateType::kXnor, 0.3f, 0.7f),
              1.0f - (0.3f * 0.3f + 0.7f * 0.7f), 1e-4f);
}

TEST_F(TableIFixture, NandNorComplement) {
  EXPECT_NEAR(forward_gate(GateType::kNand, 0.5f, 0.5f), 0.75f, 1e-4f);
  EXPECT_NEAR(forward_gate(GateType::kNor, 0.5f, 0.5f), 0.25f, 1e-4f);
}

// --- gradient check ------------------------------------------------------------------

/// Builds a random circuit, computes dL/dV analytically via one
/// run_iteration with lr chosen to expose the gradient, and compares with a
/// central finite difference of the loss.
class GradientCheck : public ::testing::TestWithParam<int> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  Circuit c;
  const std::size_t n_in = 3 + rng.next_below(3);
  for (std::size_t i = 0; i < n_in; ++i) c.add_input();
  for (int g = 0; g < 8; ++g) {
    const auto pick = [&] {
      return static_cast<SignalId>(rng.next_below(c.n_signals()));
    };
    const SignalId a = pick();
    SignalId b = pick();
    switch (rng.next_below(4)) {
      case 0:
        c.add_gate(GateType::kNot, {a});
        break;
      case 1:
        if (a == b) b = pick();
        c.add_gate(a == b ? GateType::kNot : GateType::kAnd,
                   a == b ? std::vector<SignalId>{a} : std::vector<SignalId>{a, b});
        break;
      case 2:
        if (a == b) b = pick();
        c.add_gate(a == b ? GateType::kBuf : GateType::kOr,
                   a == b ? std::vector<SignalId>{a} : std::vector<SignalId>{a, b});
        break;
      default:
        if (a == b) b = pick();
        c.add_gate(a == b ? GateType::kNot : GateType::kXor,
                   a == b ? std::vector<SignalId>{a} : std::vector<SignalId>{a, b});
        break;
    }
  }
  c.add_output(static_cast<SignalId>(c.n_signals() - 1), true);
  c.add_output(static_cast<SignalId>(c.n_signals() - 2), false);

  const CompiledCircuit compiled(c);
  Engine::Config config;
  config.batch = 1;
  config.policy = tensor::Policy::kSerial;
  config.compute_loss = true;
  config.learning_rate = 1.0f;

  // Analytic gradient: dL/dV = (V_before - V_after) / lr.
  Engine engine(compiled, config);
  util::Rng init_rng(GetParam());
  engine.randomize(init_rng);
  std::vector<float> v_before(n_in);
  for (std::size_t i = 0; i < n_in; ++i) v_before[i] = engine.v_value(i, 0);
  engine.run_iteration();
  std::vector<float> analytic(n_in);
  for (std::size_t i = 0; i < n_in; ++i) {
    analytic[i] = (v_before[i] - engine.v_value(i, 0)) / config.learning_rate;
  }

  // Finite differences on a fresh engine with the same init.
  Engine probe(compiled, config);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < n_in; ++i) {
    auto loss_at = [&](float delta) {
      for (std::size_t j = 0; j < n_in; ++j) {
        probe.set_v(j, 0, v_before[j] + (i == j ? delta : 0.0f));
      }
      probe.forward_only();
      return probe.last_loss();
    };
    const double numeric = (loss_at(kEps) - loss_at(-kEps)) / (2.0 * kEps);
    EXPECT_NEAR(analytic[i], numeric, 5e-3)
        << "input " << i << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, GradientCheck, ::testing::Range(0, 20));

// --- learning behaviour ---------------------------------------------------------------

TEST(Engine, LossDecreasesOnConjunction) {
  // Single output AND(a, b) forced to 1: GD pushes both inputs up.  Rows
  // whose initialization saturates the sigmoid on the wrong side descend
  // slowly (vanishing gradient) — the sampler handles those by
  // re-randomizing each round — so the assertion is monotone descent plus a
  // healthy fraction of converged rows, not full convergence.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  c.add_output(c.add_gate(GateType::kAnd, {a, b}), true);
  const CompiledCircuit compiled(c);
  Engine::Config config;
  config.batch = 64;
  config.learning_rate = 10.0f;
  config.init_std = 1.0f;  // mild init: fewer saturated rows
  config.policy = tensor::Policy::kSerial;
  config.compute_loss = true;
  Engine engine(compiled, config);
  util::Rng rng(1);
  engine.randomize(rng);
  engine.forward_only();
  const double initial = engine.last_loss();
  for (int iter = 0; iter < 10; ++iter) engine.run_iteration();
  engine.forward_only();
  EXPECT_LT(engine.last_loss(), initial * 0.75);
  // A solid majority of rows must harden to the (1, 1) solution.
  std::vector<std::uint64_t> packed;
  engine.harden(packed);
  const std::uint64_t both = packed[0] & packed[1];
  EXPECT_GT(std::popcount(both), 32);
}

TEST(Engine, SerialAndParallelIterationsMatch) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId x = c.add_gate(GateType::kXor, {a, b});
  c.add_output(x, true);
  const CompiledCircuit compiled(c);

  auto run = [&](tensor::Policy policy) {
    Engine::Config config;
    config.batch = 257;  // odd size: exercises partial chunks
    config.policy = policy;
    Engine engine(compiled, config);
    util::Rng rng(99);
    engine.randomize(rng);
    for (int i = 0; i < 3; ++i) engine.run_iteration();
    std::vector<float> vs;
    for (std::size_t r = 0; r < 257; ++r) {
      vs.push_back(engine.v_value(0, r));
      vs.push_back(engine.v_value(1, r));
    }
    return vs;
  };
  const auto serial = run(tensor::Policy::kSerial);
  const auto parallel = run(tensor::Policy::kDataParallel);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FLOAT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(Engine, HardenPacksVSign) {
  Circuit c;
  (void)c.add_input();
  const CompiledCircuit compiled(c);
  Engine::Config config;
  config.batch = 70;  // crosses a word boundary
  config.policy = tensor::Policy::kSerial;
  Engine engine(compiled, config);
  for (std::size_t r = 0; r < 70; ++r) {
    engine.set_v(0, r, (r % 3 == 0) ? 1.5f : -1.5f);
  }
  std::vector<std::uint64_t> packed;
  engine.harden(packed);
  ASSERT_EQ(packed.size(), engine.n_words());
  for (std::size_t r = 0; r < 70; ++r) {
    EXPECT_EQ((packed[r >> 6] >> (r & 63)) & 1, (r % 3 == 0) ? 1u : 0u) << r;
  }
}

TEST(Engine, HardenMasksPaddingRows) {
  // 70 rows leave 58 padding rows in the second tile whose V is randomized
  // but must never leak into the packed words.
  Circuit c;
  (void)c.add_input();
  const CompiledCircuit compiled(c);
  Engine::Config config;
  config.batch = 70;
  config.policy = tensor::Policy::kSerial;
  Engine engine(compiled, config);
  util::Rng rng(11);
  engine.randomize(rng);  // padding rows get (mostly) nonzero V too
  std::vector<std::uint64_t> packed;
  engine.harden(packed);
  ASSERT_EQ(packed.size(), 2u);
  EXPECT_EQ(packed[1] & ~((1ULL << 6) - 1), 0u) << "padding bits leaked";
}

TEST(Engine, RerandomizeRowsOnlyTouchesMaskedRows) {
  Circuit c;
  (void)c.add_input();
  (void)c.add_input();
  const CompiledCircuit compiled(c);
  Engine::Config config;
  config.batch = 130;  // three tiles
  config.policy = tensor::Policy::kSerial;
  Engine engine(compiled, config);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t r = 0; r < 130; ++r) engine.set_v(i, r, 5.0f);
  }
  std::vector<std::uint64_t> mask(engine.n_words(), 0);
  mask[0] = (1ULL << 3) | (1ULL << 40);
  mask[2] = 1ULL << 1;  // row 129
  util::Rng rng(3);
  EXPECT_EQ(engine.rerandomize_rows(mask, rng), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t r = 0; r < 130; ++r) {
      const bool redrawn = r == 3 || r == 40 || r == 129;
      if (redrawn) {
        EXPECT_NE(engine.v_value(i, r), 5.0f) << "input " << i << " row " << r;
      } else {
        EXPECT_EQ(engine.v_value(i, r), 5.0f) << "input " << i << " row " << r;
      }
    }
  }
}

TEST(Engine, LossIdenticalAcrossPolicies) {
  // The per-tile loss scratch is reduced in tile order, so the float sum —
  // not just its rounded value — is policy-independent.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  c.add_output(c.add_gate(GateType::kXor, {a, b}), true);
  const CompiledCircuit compiled(c);
  auto loss_with = [&](tensor::Policy policy) {
    Engine::Config config;
    config.batch = 1000;  // 16 tiles, last one partial
    config.policy = policy;
    Engine engine(compiled, config);
    util::Rng rng(21);
    engine.randomize(rng);
    engine.forward_only();
    return engine.last_loss();
  };
  EXPECT_EQ(loss_with(tensor::Policy::kSerial),
            loss_with(tensor::Policy::kDataParallel));
}

TEST(Engine, FastSigmoidEmbedMatchesExactWithin1e5) {
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId g = c.add_gate(GateType::kXor, {a, b});
  c.add_output(g, true);
  const CompiledCircuit compiled(c);
  auto run = [&](bool fast) {
    Engine::Config config;
    config.batch = 256;
    config.policy = tensor::Policy::kSerial;
    config.fast_sigmoid = fast;
    Engine engine(compiled, config);
    util::Rng rng(77);
    engine.randomize(rng);
    engine.forward_only();
    std::vector<float> ys;
    for (std::size_t r = 0; r < 256; ++r) {
      ys.push_back(engine.activation(
          static_cast<std::uint32_t>(compiled.signal_slot(g)), r));
    }
    return ys;
  };
  const auto exact = run(false);
  const auto fast = run(true);
  for (std::size_t r = 0; r < 256; ++r) {
    EXPECT_NEAR(exact[r], fast[r], 1e-5f) << r;
  }
}

TEST(Engine, MemoryIsTileResident) {
  // Only V and the per-row captures (output activations, row loss, one
  // tile-loss double per 64 rows) grow with batch; the activations and
  // gradients live in 2 * n_slots * 64 floats of scratch per part.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  const SignalId d = c.add_input();
  c.add_output(c.add_gate(GateType::kAnd, {a, b}), true);
  c.add_output(c.add_gate(GateType::kXor, {b, d}), false);
  const CompiledCircuit compiled(c);
  const std::size_t n_inputs = compiled.n_circuit_inputs();
  const std::size_t n_outputs = compiled.outputs().size();
  const std::size_t part_bytes = 2 * compiled.n_slots() * 64 * sizeof(float);
  auto per_batch_bytes = [&](std::size_t batch) {
    const std::size_t padded = (batch + 63) / 64 * 64;
    return (n_inputs + n_outputs + 1) * padded * sizeof(float) +
           padded / 64 * sizeof(double);
  };
  auto memory_at = [&](std::size_t batch, tensor::Policy policy) {
    Engine::Config config;
    config.batch = batch;
    config.policy = policy;
    return Engine(compiled, config).memory_bytes();
  };
  for (const std::size_t batch : {std::size_t{1}, std::size_t{128},
                                  std::size_t{1000}, std::size_t{8192}}) {
    // One part serially: the scratch share is the same at every batch.
    EXPECT_EQ(memory_at(batch, tensor::Policy::kSerial) - per_batch_bytes(batch),
              part_bytes)
        << batch;
    // Tile-parallel: one part per pool thread, capped by the tile count.
    const std::size_t parts = std::min((batch + 63) / 64,
                                       util::ThreadPool::global().size());
    EXPECT_EQ(memory_at(batch, tensor::Policy::kDataParallel) -
                  per_batch_bytes(batch),
              parts * part_bytes)
        << batch;
  }
  // The Fig. 3 model stays the analytic PyTorch-style footprint: V, V.grad
  // and batch-sized activations and gradients.
  for (const std::size_t batch : {std::size_t{100}, std::size_t{1000000}}) {
    const std::size_t padded = (batch + 63) / 64 * 64;
    EXPECT_EQ(Engine::predicted_bytes(compiled, batch),
              (2 * n_inputs + 2 * compiled.n_slots()) * padded * sizeof(float));
  }
}

// --- V draws and the denormal guard ----------------------------------------------

/// V's bits for every input and every row of every tile, padding included.
std::vector<std::uint32_t> v_bits(const Engine& engine) {
  std::vector<std::uint32_t> bits;
  const std::size_t rows = engine.n_words() * Engine::kTileRows;
  for (std::size_t i = 0; i < engine.n_inputs(); ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      bits.push_back(std::bit_cast<std::uint32_t>(engine.v_value(i, r)));
    }
  }
  return bits;
}

TEST(Engine, ParallelDrawsMatchSerialBits) {
  // A multi-part engine replays its V draws on the pool; the bits and the
  // stream it leaves must be a one-part engine's.  101 inputs x 4133 rows
  // is past the fill's parallel threshold, the last tile holds 37 rows, and
  // the odd input count leaves a spare after an odd number of restarts.
  Circuit c;
  std::vector<SignalId> ins;
  for (int i = 0; i < 101; ++i) ins.push_back(c.add_input());
  c.add_output(c.add_gate(GateType::kOr, ins), true);
  const CompiledCircuit compiled(c);
  ASSERT_EQ(compiled.n_circuit_inputs(), 101u);
  auto make = [&](tensor::Policy policy) {
    Engine::Config config;
    config.batch = 4133;
    config.policy = policy;
    return Engine(compiled, config);
  };
  Engine serial = make(tensor::Policy::kSerial);
  Engine parallel = make(tensor::Policy::kDataParallel);
  util::Rng serial_rng(5);
  util::Rng parallel_rng(5);
  serial.randomize(serial_rng);
  parallel.randomize(parallel_rng);
  ASSERT_TRUE(v_bits(serial) == v_bits(parallel));

  // Every third row and the batch's last row, in the partial last word:
  // 1,379 rows.  The second restart starts with the first one's spare.
  std::vector<std::uint64_t> mask(serial.n_words(), 0);
  for (std::size_t r = 0; r < 4133; r += 3) mask[r / 64] |= 1ULL << (r % 64);
  mask[4132 / 64] |= 1ULL << (4132 % 64);
  for (int restart = 0; restart < 2; ++restart) {
    EXPECT_EQ(serial.rerandomize_rows(mask, serial_rng), 1379u);
    EXPECT_EQ(parallel.rerandomize_rows(mask, parallel_rng), 1379u);
    ASSERT_TRUE(v_bits(serial) == v_bits(parallel)) << restart;
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial_rng.next_gaussian()),
              std::bit_cast<std::uint64_t>(parallel_rng.next_gaussian()));
  }
}

#if defined(__SSE__)
TEST(Engine, SweepRestoresTheFloatMode) {
  // The sweep computes with denormals flushed (FTZ|DAZ) only while it
  // runs: the caller's MXCSR reads the same afterwards, and the pool
  // workers that ran parts are back in the default mode for the next
  // parallel_for.
  constexpr unsigned kFtzDaz = 0x8040;
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  c.add_output(c.add_gate(GateType::kXor, {a, b}), true);
  const CompiledCircuit compiled(c);
  for (const tensor::Policy policy :
       {tensor::Policy::kSerial, tensor::Policy::kDataParallel}) {
    Engine::Config config;
    config.batch = 1024;
    config.policy = policy;
    Engine engine(compiled, config);
    util::Rng rng(13);
    engine.randomize(rng);
    const unsigned before = _mm_getcsr();
    ASSERT_EQ(before & kFtzDaz, 0u);
    engine.run_iteration();
    EXPECT_EQ(_mm_getcsr(), before);
    engine.forward_only();
    EXPECT_EQ(_mm_getcsr(), before);
  }
  // One task per worker: each task waits until every worker holds one, so
  // no worker can take two and every worker reports its mode.
  util::ThreadPool& pool = util::ThreadPool::global();
  std::atomic<std::size_t> arrived{0};
  std::atomic<unsigned> modes{0};
  pool.parallel_for(pool.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      modes |= _mm_getcsr() & kFtzDaz;
      ++arrived;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < pool.size() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_EQ(arrived.load(), pool.size());
  EXPECT_EQ(modes.load(), 0u);
}
#endif

TEST(Engine, DenormalGradientsLeaveVAsRecorded) {
  // A 120-input AND chain: its partial products, and the gradients flowing
  // back along it, pass through the denormal range on most rows, where the
  // sweep flushes them to zero.  An XOR of the chain's ends gives those two
  // inputs ordinary gradients too.  The hash was recorded on an engine
  // that computed with denormals; flushing them must not move one bit.
  constexpr std::size_t kChain = 120;
  constexpr std::size_t kBatch = 512;
  Circuit c;
  std::vector<SignalId> ins;
  for (std::size_t i = 0; i < kChain; ++i) ins.push_back(c.add_input());
  SignalId chain = ins[0];
  for (std::size_t i = 1; i < kChain; ++i) {
    chain = c.add_gate(GateType::kAnd, {chain, ins[i]});
  }
  c.add_output(chain, true);
  c.add_output(c.add_gate(GateType::kXor, {ins.front(), ins.back()}), true);
  const CompiledCircuit compiled(c);
  for (const tensor::Policy policy :
       {tensor::Policy::kSerial, tensor::Policy::kDataParallel}) {
    Engine::Config config;
    config.batch = kBatch;
    config.policy = policy;
    Engine engine(compiled, config);
    util::Rng rng(2024);
    engine.randomize(rng);
    // The chain's full product underflows past the smallest normal float.
    std::size_t underflowing = 0;
    for (std::size_t r = 0; r < kBatch; ++r) {
      double log_product = 0.0;
      for (std::size_t i = 0; i < kChain; ++i) {
        log_product -= std::log1p(std::exp(-double{engine.v_value(i, r)}));
      }
      if (log_product < std::log(double{std::numeric_limits<float>::min()})) {
        ++underflowing;
      }
    }
    EXPECT_GT(underflowing, kBatch * 3 / 4);
    for (int i = 0; i < 10; ++i) engine.run_iteration();
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
    for (const std::uint32_t bits : v_bits(engine)) {
      hash = (hash ^ bits) * 0x100000001b3ULL;
    }
    EXPECT_EQ(hash, 0xd30230f9d7fdfd47ULL) << std::hex << hash;
  }
}

TEST(Engine, UnconstrainedInputsKeepRandomInit) {
  // Input `a` feeds nothing; its V must not move under GD.
  Circuit c;
  const SignalId a = c.add_input();
  const SignalId b = c.add_input();
  c.add_output(c.add_gate(GateType::kNot, {b}), true);
  const CompiledCircuit compiled(c);
  Engine::Config config;
  config.batch = 8;
  config.policy = tensor::Policy::kSerial;
  Engine engine(compiled, config);
  util::Rng rng(7);
  engine.randomize(rng);
  std::vector<float> before;
  for (std::size_t r = 0; r < 8; ++r) before.push_back(engine.v_value(0, r));
  for (int i = 0; i < 3; ++i) engine.run_iteration();
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_FLOAT_EQ(engine.v_value(0, r), before[r]) << r;
  }
  (void)a;
}

}  // namespace
}  // namespace hts::prob
