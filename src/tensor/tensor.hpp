#pragma once

// The engine's execution policies.
//
// This module stands in for the paper's PyTorch/V100 substrate.  The prob
// engine runs its kernels either serially (models the CPU run of the
// Fig. 4 ablation) or across a thread pool (models the GPU's batch-parallel
// execution); its width-8 SIMD kernels live in tensor/simd.hpp.  Memory is
// reported by the engine itself (prob::Engine::memory_bytes), which the
// Fig. 3 (right) memory-vs-batch-size curve reads.

#include <cstdint>

namespace hts::tensor {

/// Execution policy for the prob engine's GD sweeps.
enum class Policy : std::uint8_t {
  kSerial,        // single thread ("CPU")
  kDataParallel,  // thread-pool over batch tiles ("GPU simulator")
};

/// Short stable name for bench tables and JSON records.
[[nodiscard]] const char* policy_name(Policy policy);

}  // namespace hts::tensor
