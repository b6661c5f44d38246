#include "tensor/tensor.hpp"

namespace hts::tensor {

namespace {

// Thread-safety audit: tensor state shared across threads is exactly these
// two accounting atomics (relaxed — the peak is advisory, see the CAS loop
// in record_alloc).  Tensor buffers themselves are single-owner, and the
// prob engine hands each pool worker a disjoint slice of them, so they
// carry no locks.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

}  // namespace

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kSerial:
      return "serial";
    case Policy::kDataParallel:
      return "tile-parallel";
  }
  return "unknown";
}

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

std::int64_t peak_bytes() { return g_peak_bytes.load(std::memory_order_relaxed); }

void reset_peak_bytes() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

namespace detail {

void record_alloc(std::int64_t bytes) {
  const std::int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void record_free(std::int64_t bytes) {
  g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace hts::tensor
