#include "expr/truth_table.hpp"

#include <algorithm>
#include <bit>

namespace hts::expr {

namespace {

/// The canonical 64-row pattern of variable j (valid for j < 6).
constexpr std::uint64_t kVarPattern[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

}  // namespace

void TruthTable::trim() {
  if (n_vars_ >= 6) return;
  const std::uint64_t rows = n_rows();
  if (rows < 64) bits_[0] &= (1ULL << rows) - 1;
}

std::uint64_t TruthTable::projection_word(std::uint32_t j, std::size_t w) {
  if (j < 6) return kVarPattern[j];
  // Variable j toggles every 2^j rows == every 2^(j-6) words.
  return ((w >> (j - 6)) & 1) != 0 ? ~0ULL : 0ULL;
}

TruthTable TruthTable::projection(std::uint32_t n_vars, std::uint32_t j) {
  HTS_CHECK(j < n_vars);
  TruthTable tt(n_vars);
  for (std::size_t w = 0; w < tt.bits_.size(); ++w) {
    tt.bits_[w] = projection_word(j, w);
  }
  tt.trim();
  return tt;
}

TruthTable TruthTable::from_words(std::uint32_t n_vars,
                                  std::span<const std::uint64_t> words) {
  TruthTable tt(n_vars);
  HTS_CHECK(words.size() == tt.bits_.size());
  std::copy(words.begin(), words.end(), tt.bits_.begin());
  tt.trim();
  return tt;
}

TruthTable TruthTable::constant(std::uint32_t n_vars, bool value) {
  TruthTable tt(n_vars);
  if (value) {
    for (auto& word : tt.bits_) word = ~0ULL;
    tt.trim();
  }
  return tt;
}

TruthTable TruthTable::operator~() const {
  TruthTable result(n_vars_);
  for (std::size_t w = 0; w < bits_.size(); ++w) result.bits_[w] = ~bits_[w];
  result.trim();
  return result;
}

bool TruthTable::operator==(const TruthTable& other) const {
  return n_vars_ == other.n_vars_ && bits_ == other.bits_;
}

bool TruthTable::is_constant_false() const {
  for (const auto word : bits_) {
    if (word != 0) return false;
  }
  return true;
}

bool TruthTable::is_constant_true() const { return *this == constant(n_vars_, true); }

std::uint64_t TruthTable::popcount() const {
  std::uint64_t total = 0;
  for (const auto word : bits_) total += std::popcount(word);
  return total;
}

std::vector<std::uint64_t> TruthTable::minterms() const {
  std::vector<std::uint64_t> rows;
  rows.reserve(popcount());
  for (std::uint64_t row = 0; row < n_rows(); ++row) {
    if (get(row)) rows.push_back(row);
  }
  return rows;
}

}  // namespace hts::expr
