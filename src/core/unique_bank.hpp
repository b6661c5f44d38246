#pragma once

// Deduplicating store for sampled solutions.
//
// Keys are packed bit vectors (one bit per tracked variable, bit i in word
// i / 64), n_words() words each, handed over as `const std::uint64_t*`.
// The paper reports *unique* solution throughput, so the bank is on the hot
// path of every sampler; it compares whole keys (no lossy fingerprints — an
// overcounted unique would inflate throughput).
//
// Both variants store keys in a KeyTable (below) and share the interface
// insert(key), contains(key), size(), n_words() and size_bytes():
//   UniqueBank         one table, zero synchronization (the serial loop and
//                      service jobs, which one worker holds at a time).
//   ShardedUniqueBank  one table per shard, each behind its own mutex, for
//                      round-parallel workers merging concurrently; the key
//                      hash picks the shard, so uncorrelated solutions spread
//                      across shards and contention stays proportional to
//                      1/n_shards.
// size_bytes() is the bytes the tables have allocated (slot arrays plus key
// arenas), which is what the service's max_bank_bytes cap reads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::sampler {

/// Exact set of fixed-width keys in flat memory.  Keys are appended to one
/// dense arena (n_words words each, in insertion order).  A power-of-two
/// array of {32-bit hash tag, arena index} slots indexes them by linear
/// probing from the tag's low bits, and doubles before its load passes 3/4;
/// growth re-seats slots from their tags alone, so it never reads the arena.
/// A tag match is confirmed by comparing the whole key.  Not synchronized.
class KeyTable {
 public:
  explicit KeyTable(std::size_t n_words) : n_words_(n_words) {}

  /// 64-bit hash of one key; the low 32 bits are the table's tag, so
  /// ShardedUniqueBank picks shards from the high bits.
  [[nodiscard]] static std::uint64_t hash(const std::uint64_t* key,
                                          std::size_t n_words) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < n_words; ++i) {
      h = (h ^ key[i]) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 32;
    }
    // murmur3's fmix64 finalizer: every output bit depends on every word.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  /// Inserts a key whose hash() is `h`; returns true when it was new.
  bool insert(const std::uint64_t* key, std::uint64_t h) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const auto tag = static_cast<std::uint32_t>(h);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = tag & mask;; pos = (pos + 1) & mask) {
      Slot& slot = slots_[pos];
      if (slot.index == kEmpty) {
        HTS_CHECK_MSG(size_ < kEmpty, "KeyTable holds at most 2^32 - 1 keys");
        slot = Slot{tag, static_cast<std::uint32_t>(size_)};
        arena_.insert(arena_.end(), key, key + n_words_);
        ++size_;
        return true;
      }
      if (slot.tag == tag && same_key(slot.index, key)) return false;
    }
  }

  /// True when a key whose hash() is `h` is in the table.
  [[nodiscard]] bool contains(const std::uint64_t* key, std::uint64_t h) const {
    if (size_ == 0) return false;
    const auto tag = static_cast<std::uint32_t>(h);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = tag & mask;; pos = (pos + 1) & mask) {
      const Slot& slot = slots_[pos];
      if (slot.index == kEmpty) return false;
      if (slot.tag == tag && same_key(slot.index, key)) return true;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t n_words() const { return n_words_; }

  /// Heap bytes the table has allocated: the slot array and the arena's
  /// capacity.  An empty table has allocated nothing.
  [[nodiscard]] std::size_t size_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           arena_.capacity() * sizeof(std::uint64_t);
  }

 private:
  struct Slot {
    std::uint32_t tag;
    std::uint32_t index;  // arena key index, kEmpty for a free slot
  };
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  [[nodiscard]] bool same_key(std::uint32_t index,
                              const std::uint64_t* key) const {
    const std::uint64_t* stored = arena_.data() + index * n_words_;
    return std::equal(stored, stored + n_words_, key);
  }

  /// Doubles the slot array (16 slots at first) and re-seats every slot at
  /// its tag's home position in the new mask.
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, slots_.size() * 2),
                          Slot{0, kEmpty});
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.index == kEmpty) continue;
      std::size_t pos = slot.tag & mask;
      while (slots_[pos].index != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = slot;
    }
  }

  std::size_t n_words_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> arena_;
};

class UniqueBank {
 public:
  explicit UniqueBank(std::size_t n_bits)
      : n_bits_(n_bits), table_((n_bits + 63) / 64) {}

  /// Inserts a packed key of n_words() words; returns true when it was new.
  bool insert(const std::uint64_t* key) {
    return table_.insert(key, KeyTable::hash(key, n_words()));
  }

  /// Packs a byte-per-bit assignment and inserts it.
  bool insert_bits(const std::vector<std::uint8_t>& bits) {
    bits_key_.assign(n_words(), 0);
    for (std::size_t i = 0; i < n_bits_; ++i) {
      if (bits[i] != 0) bits_key_[i >> 6] |= 1ULL << (i & 63);
    }
    return insert(bits_key_.data());
  }

  /// True when the key is already banked.  Powers the diversity objective's
  /// restart probe (is this row's projection already collected?).
  [[nodiscard]] bool contains(const std::uint64_t* key) const {
    return table_.contains(key, KeyTable::hash(key, n_words()));
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::size_t n_words() const { return table_.n_words(); }

  /// Heap bytes the table has allocated (KeyTable::size_bytes).
  [[nodiscard]] std::size_t size_bytes() const { return table_.size_bytes(); }

 private:
  std::size_t n_bits_;
  KeyTable table_;
  /// insert_bits' packing scratch.
  std::vector<std::uint64_t> bits_key_;
};

/// Concurrent UniqueBank: the key hash picks a shard, the shard's mutex
/// serializes only the colliding sliver of traffic, and relaxed atomics keep
/// size() and size_bytes() O(1) and lock-free, so the round-parallel target
/// check (`bank.size() >= min_solutions`, polled every iteration by every
/// worker) never touches a lock.
class ShardedUniqueBank {
 public:
  static constexpr std::size_t kDefaultShards = 64;

  explicit ShardedUniqueBank(std::size_t n_bits,
                             std::size_t n_shards = kDefaultShards)
      : n_words_((n_bits + 63) / 64) {
    std::size_t n = 1;
    while (n < n_shards) n <<= 1;
    shards_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      shards_.push_back(std::make_unique<Shard>(n_words_));
    }
  }

  /// Inserts a packed key of n_words() words; returns true when it was new.
  /// Safe to call from any number of threads concurrently.
  bool insert(const std::uint64_t* key) {
    const std::uint64_t h = KeyTable::hash(key, n_words_);
    Shard& shard = shard_of(h);
    bool is_new = false;
    std::size_t grown = 0;
    {
      util::LockGuard lock(shard.mutex);
      const std::size_t before = shard.table.size_bytes();
      is_new = shard.table.insert(key, h);
      grown = shard.table.size_bytes() - before;
    }
    if (is_new) size_.fetch_add(1, std::memory_order_relaxed);
    if (grown != 0) bytes_.fetch_add(grown, std::memory_order_relaxed);
    return is_new;
  }

  /// True when the key is already banked — a point-in-time answer under
  /// concurrent inserts (another thread may bank the key right after).  The
  /// diversity probe only uses it as a restart heuristic, so a stale miss
  /// costs one wasted descent, never a duplicate unique.
  [[nodiscard]] bool contains(const std::uint64_t* key) {
    const std::uint64_t h = KeyTable::hash(key, n_words_);
    Shard& shard = shard_of(h);
    util::LockGuard lock(shard.mutex);
    return shard.table.contains(key, h);
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Heap bytes the shards' tables have allocated, summed.  Lock-free like
  /// size(), so it can be polled from any thread.
  [[nodiscard]] std::size_t size_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t n_words() const { return n_words_; }
  [[nodiscard]] std::size_t n_shards() const { return shards_.size(); }

 private:
  /// Shard mutexes are leaf locks: at most one shard is held at a time and
  /// nothing else is acquired under it (see util/mutex.hpp's lock order).
  struct Shard {
    explicit Shard(std::size_t n_words) : table(n_words) {}
    util::Mutex mutex;
    KeyTable table HTS_GUARDED_BY(mutex);
  };

  /// The hash's high half picks the shard; the table's tag is the low half,
  /// so the two decisions stay independent.
  [[nodiscard]] Shard& shard_of(std::uint64_t h) {
    return *shards_[(h >> 32) & (shards_.size() - 1)];
  }

  std::size_t n_words_;
  /// Held by pointer: a Shard's mutex can be neither copied nor moved.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace hts::sampler
