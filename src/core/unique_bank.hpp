#pragma once

// Deduplicating store for sampled solutions.
//
// Keys are packed bit vectors (one bit per tracked variable).  The paper
// reports *unique* solution throughput, so the bank is on the hot path of
// every sampler; it hashes whole keys (no lossy fingerprints — an
// overcounted unique would inflate throughput).
//
// Two variants share the interface:
//   UniqueBank         single-thread, zero synchronization (the serial loop
//                      and service jobs, which one worker holds at a time).
//   ShardedUniqueBank  mutex-per-shard, for round-parallel workers merging
//                      concurrently; shard selection reuses the key hash so
//                      uncorrelated solutions spread across shards and
//                      contention stays proportional to 1/n_shards.

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::sampler {

namespace detail {

/// FNV-1a over the packed words with an extra avalanche xor-shift; shared by
/// both bank variants so a key lands in the same shard its set hash implies.
struct PackedKeyHash {
  std::size_t operator()(const std::vector<std::uint64_t>& key) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t word : key) {
      h ^= word;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Approximate heap bytes one banked key costs: the packed words, the
/// std::vector header, and the unordered_set node (stored hash + bucket
/// chain pointer + allocator rounding).  Shared by both bank variants so
/// size_bytes() means the same thing everywhere; it is an accounting
/// estimate for per-client memory caps, not an allocator audit.
[[nodiscard]] inline std::size_t key_footprint_bytes(std::size_t n_words) {
  constexpr std::size_t kNodeOverhead = 32;
  return n_words * sizeof(std::uint64_t) + sizeof(std::vector<std::uint64_t>) +
         kNodeOverhead;
}

/// Packs a byte-per-bit assignment into the canonical key layout.  Shared by
/// both bank variants so they can never disagree on key identity.
[[nodiscard]] inline std::vector<std::uint64_t> pack_bits(
    const std::vector<std::uint8_t>& bits, std::size_t n_bits,
    std::size_t n_words) {
  std::vector<std::uint64_t> key(n_words, 0);
  for (std::size_t i = 0; i < n_bits; ++i) {
    if (bits[i] != 0) key[i >> 6] |= (1ULL << (i & 63));
  }
  return key;
}

}  // namespace detail

class UniqueBank {
 public:
  explicit UniqueBank(std::size_t n_bits)
      : n_bits_(n_bits), n_words_((n_bits + 63) / 64) {}

  /// Inserts a packed key; returns true when it was new.
  bool insert(const std::vector<std::uint64_t>& key) {
    return set_.insert(key).second;
  }

  /// Packs a byte-per-bit assignment and inserts it.
  bool insert_bits(const std::vector<std::uint8_t>& bits) {
    return insert(detail::pack_bits(bits, n_bits_, n_words_));
  }

  /// True when the key is already banked.  Powers the diversity objective's
  /// restart probe (is this row's projection already collected?).
  [[nodiscard]] bool contains(const std::vector<std::uint64_t>& key) const {
    return set_.find(key) != set_.end();
  }

  [[nodiscard]] std::size_t size() const { return set_.size(); }
  [[nodiscard]] std::size_t n_words() const { return n_words_; }

  /// Approximate heap footprint of the banked keys (see
  /// detail::key_footprint_bytes); grows linearly with size().
  [[nodiscard]] std::size_t size_bytes() const {
    return set_.size() * detail::key_footprint_bytes(n_words_);
  }

 private:
  std::size_t n_bits_;
  std::size_t n_words_;
  std::unordered_set<std::vector<std::uint64_t>, detail::PackedKeyHash> set_;
};

/// Concurrent UniqueBank: the key hash picks a shard, the shard's mutex
/// serializes only the colliding sliver of traffic, and a relaxed atomic
/// keeps size() O(1) so the round-parallel target check (`bank.size() >=
/// min_solutions`, polled every iteration by every worker) never touches a
/// lock.
class ShardedUniqueBank {
 public:
  static constexpr std::size_t kDefaultShards = 64;

  explicit ShardedUniqueBank(std::size_t n_bits,
                             std::size_t n_shards = kDefaultShards)
      : n_bits_(n_bits),
        n_words_((n_bits + 63) / 64),
        shards_(round_up_pow2(n_shards)) {}

  /// Inserts a packed key; returns true when it was new.  Safe to call from
  /// any number of threads concurrently.
  bool insert(const std::vector<std::uint64_t>& key) {
    const std::size_t h = detail::PackedKeyHash{}(key);
    // High bits pick the shard; unordered_set consumes the low bits, so the
    // two decisions stay independent.
    Shard& shard = shards_[(h >> 48) & (shards_.size() - 1)];
    bool is_new = false;
    {
      util::LockGuard lock(shard.mutex);
      is_new = shard.set.insert(key).second;
    }
    if (is_new) size_.fetch_add(1, std::memory_order_relaxed);
    return is_new;
  }

  /// Packs a byte-per-bit assignment and inserts it.
  bool insert_bits(const std::vector<std::uint8_t>& bits) {
    return insert(detail::pack_bits(bits, n_bits_, n_words_));
  }

  /// True when the key is already banked — a point-in-time answer under
  /// concurrent inserts (another thread may bank the key right after).  The
  /// diversity probe only uses it as a restart heuristic, so a stale miss
  /// costs one wasted descent, never a duplicate unique.
  [[nodiscard]] bool contains(const std::vector<std::uint64_t>& key) {
    const std::size_t h = detail::PackedKeyHash{}(key);
    Shard& shard = shards_[(h >> 48) & (shards_.size() - 1)];
    util::LockGuard lock(shard.mutex);
    return shard.set.find(key) != shard.set.end();
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Approximate heap footprint of the banked keys (see
  /// detail::key_footprint_bytes).  Lock-free like size(), so the service
  /// can poll per-request memory caps from any thread.
  [[nodiscard]] std::size_t size_bytes() const {
    return size() * detail::key_footprint_bytes(n_words_);
  }

  [[nodiscard]] std::size_t n_words() const { return n_words_; }
  [[nodiscard]] std::size_t n_shards() const { return shards_.size(); }

 private:
  /// Shard mutexes are leaf locks: at most one shard is held at a time and
  /// nothing else is acquired under it (see util/mutex.hpp's lock order).
  struct Shard {
    util::Mutex mutex;
    std::unordered_set<std::vector<std::uint64_t>, detail::PackedKeyHash> set
        HTS_GUARDED_BY(mutex);
  };

  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t n_bits_;
  std::size_t n_words_;
  std::vector<Shard> shards_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace hts::sampler
