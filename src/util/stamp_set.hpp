#pragma once

// A set of small indices that empties in O(1).  An index is a member when
// its stamp equals the current epoch; clear() moves to the next epoch, so a
// traversal that marks visited nodes reuses one array instead of building
// a hash set per call.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hts::util {

class StampSet {
 public:
  /// Makes indices below n addressable (never shrinks).
  void grow(std::size_t n) {
    if (stamps_.size() < n) stamps_.resize(n, 0);
  }

  void clear() {
    if (++epoch_ == 0) {  // wrapped: stamps 2^32 epochs old would alias
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool contains(std::size_t i) const { return stamps_[i] == epoch_; }

  /// Adds i; false when it was already a member.
  bool insert(std::size_t i) {
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;
};

}  // namespace hts::util
