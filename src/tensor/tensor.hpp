#pragma once

// Tracked float storage and the engine's execution policies.
//
// This module stands in for the paper's PyTorch/V100 substrate.  The prob
// engine runs its kernels either serially (models the CPU run of the
// Fig. 4 ablation) or across a thread pool (models the GPU's batch-parallel
// execution).  Allocation is tracked byte-accurately so the Fig. 3 (right)
// memory-vs-batch-size curve can be measured without nvidia-smi.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "util/check.hpp"

namespace hts::tensor {

/// Execution policy for the prob engine's GD sweeps.
enum class Policy : std::uint8_t {
  kSerial,        // single thread ("CPU")
  kDataParallel,  // thread-pool over batch tiles ("GPU simulator")
};

/// Short stable name for bench tables and JSON records.
[[nodiscard]] const char* policy_name(Policy policy);

// --- allocation accounting --------------------------------------------------

/// Live bytes currently held by Buffer instances.
[[nodiscard]] std::int64_t live_bytes();
/// High-water mark since the last reset_peak_bytes().
[[nodiscard]] std::int64_t peak_bytes();
void reset_peak_bytes();

namespace detail {
void record_alloc(std::int64_t bytes);
void record_free(std::int64_t bytes);
}  // namespace detail

/// A tracked, contiguous float buffer.  Deliberately minimal: the prob
/// engine addresses it in 64-row tiles ([tile][slot][row-in-tile]) so the
/// inner loops stream contiguous memory per operation.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t n, float fill = 0.0f) { resize(n, fill); }

  Buffer(const Buffer& other) : data_(other.data_) {
    detail::record_alloc(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
  }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      detail::record_free(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
      data_ = other.data_;
      detail::record_alloc(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
    }
    return *this;
  }
  Buffer(Buffer&& other) noexcept = default;
  Buffer& operator=(Buffer&& other) noexcept = default;

  ~Buffer() {
    detail::record_free(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
  }

  void resize(std::size_t n, float fill = 0.0f) {
    detail::record_free(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
    data_.assign(n, fill);
    data_.shrink_to_fit();
    detail::record_alloc(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
  }

  void fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

 private:
  std::vector<float> data_;
};

}  // namespace hts::tensor
