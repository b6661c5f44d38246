// A/B parity suite for the vectorized tape engine: on every benchgen
// circuit family, the optimized tape (copy propagation, constant folding,
// CSE, fused NOTs, DCE, slot renumbering) running on the SIMD kernels must
// reproduce the unoptimized tape's activations
//   - bit for bit with the exact (std::exp) sigmoid embed, and
//   - within 1e-5 with the fast polynomial sigmoid.
// This is the contract that lets every sampler default to the optimized
// fast path while benches A/B against the pre-optimization engine.
//
// The schedulers get a stronger treatment: every policy executes the
// compiled plan through the opcode-run-batched kernels in the same order
// (forward in plan order, backward in reverse plan order), so the *full* GD
// trajectory — activations, loss, per-row losses, and V after descent —
// must be bitwise identical across serial and tile-parallel, on raw and
// optimized tapes, at a 16-tile batch so scratch parts are reused across
// tiles.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/families.hpp"
#include "prob/compiled.hpp"
#include "prob/engine.hpp"
#include "util/rng.hpp"

namespace hts::prob {
namespace {

constexpr std::size_t kBatch = 256;
/// 16 tiles, the last one partial: the serial engine's one part, and every
/// tile-parallel part on a pool of up to 15 threads, reuses its scratch.
constexpr std::size_t kPolicyBatch = 1000;
constexpr std::uint64_t kSeed = 4242;

class EngineParity : public ::testing::TestWithParam<const char*> {
 protected:
  static Engine make_engine(const CompiledCircuit& compiled, bool fast_sigmoid,
                            tensor::Policy policy = tensor::Policy::kSerial,
                            std::size_t batch = kBatch) {
    Engine::Config config;
    config.batch = batch;
    config.policy = policy;
    config.fast_sigmoid = fast_sigmoid;
    config.compute_loss = true;
    return Engine(compiled, config);
  }

  /// Serial and tile-parallel engines over one circuit at kPolicyBatch,
  /// identically randomized.
  struct PolicyPair {
    Engine serial;
    Engine tiles;
  };
  static PolicyPair make_pair(const CompiledCircuit& compiled) {
    PolicyPair pair{make_engine(compiled, /*fast_sigmoid=*/false,
                                tensor::Policy::kSerial, kPolicyBatch),
                    make_engine(compiled, /*fast_sigmoid=*/false,
                                tensor::Policy::kDataParallel, kPolicyBatch)};
    for (Engine* engine : {&pair.serial, &pair.tiles}) {
      util::Rng rng(kSeed);
      engine->randomize(rng);
    }
    return pair;
  }

  static void expect_same_row_losses(const Engine& serial, const Engine& tiles,
                                     const std::string& label) {
    std::vector<float> serial_losses;
    std::vector<float> tile_losses;
    serial.row_losses(serial_losses);
    tiles.row_losses(tile_losses);
    ASSERT_EQ(serial_losses.size(), kPolicyBatch) << label;
    for (std::size_t r = 0; r < kPolicyBatch; ++r) {
      ASSERT_EQ(serial_losses[r], tile_losses[r]) << label << " row " << r;
    }
  }
};

TEST_P(EngineParity, OptimizedExactSigmoidForwardIsBitIdentical) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);
  // The optimizer must be doing real work on every family.
  EXPECT_LT(opt.n_ops(), raw.n_ops()) << GetParam();
  EXPECT_LE(opt.n_slots(), raw.n_slots()) << GetParam();

  Engine eng_raw = make_engine(raw, /*fast_sigmoid=*/false);
  Engine eng_opt = make_engine(opt, /*fast_sigmoid=*/false);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  eng_raw.forward_only();
  eng_opt.forward_only();

  ASSERT_EQ(raw.outputs().size(), opt.outputs().size());
  for (std::size_t k = 0; k < raw.outputs().size(); ++k) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      const float y_raw = eng_raw.activation(raw.outputs()[k].slot, r);
      const float y_opt = eng_opt.activation(opt.outputs()[k].slot, r);
      ASSERT_EQ(y_raw, y_opt) << GetParam() << " output " << k << " row " << r;
    }
  }
  EXPECT_EQ(eng_raw.last_loss(), eng_opt.last_loss()) << GetParam();
}

TEST_P(EngineParity, OptimizedFastSigmoidForwardWithin1e5) {
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);

  Engine eng_raw = make_engine(raw, /*fast_sigmoid=*/false);
  Engine eng_opt = make_engine(opt, /*fast_sigmoid=*/true);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  eng_raw.forward_only();
  eng_opt.forward_only();

  for (std::size_t k = 0; k < raw.outputs().size(); ++k) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      const float y_raw = eng_raw.activation(raw.outputs()[k].slot, r);
      const float y_opt = eng_opt.activation(opt.outputs()[k].slot, r);
      ASSERT_NEAR(y_raw, y_opt, 1e-5f)
          << GetParam() << " output " << k << " row " << r;
    }
  }
}

TEST_P(EngineParity, OptimizedGradientDescentTracksRaw) {
  // Gradient accumulation order can shift where copies were propagated, so
  // V agreement after descent is near-exact rather than bitwise.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  const CompiledCircuit raw(instance.circuit,
                            CompiledCircuit::Options{false, false});
  const CompiledCircuit opt(instance.circuit);

  Engine eng_raw = make_engine(raw, /*fast_sigmoid=*/false);
  Engine eng_opt = make_engine(opt, /*fast_sigmoid=*/false);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  eng_raw.randomize(rng_a);
  eng_opt.randomize(rng_b);
  for (int iter = 0; iter < 3; ++iter) {
    eng_raw.run_iteration();
    eng_opt.run_iteration();
  }
  const std::size_t n_inputs = eng_raw.n_inputs();
  ASSERT_EQ(n_inputs, eng_opt.n_inputs());
  for (std::size_t i = 0; i < n_inputs; ++i) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      ASSERT_NEAR(eng_raw.v_value(i, r), eng_opt.v_value(i, r), 1e-4f)
          << GetParam() << " input " << i << " row " << r;
    }
  }
}

TEST_P(EngineParity, TileParallelForwardIsBitIdentical) {
  // Serial vs tile-parallel, raw and optimized tapes, exact sigmoid: every
  // output activation, the per-row losses and the loss agree bit for bit.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  for (const bool optimize : {false, true}) {
    const CompiledCircuit compiled(instance.circuit,
                                   CompiledCircuit::Options{false, optimize});
    const std::string label =
        std::string(GetParam()) + (optimize ? "/opt" : "/raw");
    PolicyPair pair = make_pair(compiled);
    pair.serial.forward_only();
    pair.tiles.forward_only();
    for (std::size_t k = 0; k < compiled.outputs().size(); ++k) {
      const std::uint32_t slot = compiled.outputs()[k].slot;
      for (std::size_t r = 0; r < kPolicyBatch; ++r) {
        ASSERT_EQ(pair.serial.activation(slot, r), pair.tiles.activation(slot, r))
            << label << " output " << k << " row " << r;
      }
    }
    expect_same_row_losses(pair.serial, pair.tiles, label);
    EXPECT_EQ(pair.serial.last_loss(), pair.tiles.last_loss()) << label;
  }
}

TEST_P(EngineParity, GdTrajectoryIsBitIdenticalAcrossAllPolicies) {
  // Since the opcode-batched dispatch every policy walks the plan in the
  // same order — forward in plan order, backward in reverse plan order — so
  // the *entire* GD trajectory (not just forward activations) is bitwise
  // equal across serial and tile-parallel, on raw and optimized tapes.
  const benchgen::Instance instance = benchgen::make_instance(GetParam());
  for (const bool optimize : {false, true}) {
    const CompiledCircuit compiled(instance.circuit,
                                   CompiledCircuit::Options{false, optimize});
    const std::string label =
        std::string(GetParam()) + (optimize ? "/opt" : "/raw");
    PolicyPair pair = make_pair(compiled);
    for (int iter = 0; iter < 3; ++iter) {
      pair.serial.run_iteration();
      pair.tiles.run_iteration();
    }
    const std::size_t n_inputs = pair.serial.n_inputs();
    for (std::size_t i = 0; i < n_inputs; ++i) {
      for (std::size_t r = 0; r < kPolicyBatch; ++r) {
        ASSERT_EQ(pair.serial.v_value(i, r), pair.tiles.v_value(i, r))
            << label << " input " << i << " row " << r;
      }
    }
    expect_same_row_losses(pair.serial, pair.tiles, label);
    EXPECT_EQ(pair.serial.last_loss(), pair.tiles.last_loss()) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EngineParity,
                         ::testing::Values("or-50-10-7-UC-10", "75-10-1-q",
                                           "s15850a_3_2", "Prod-8"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hts::prob
