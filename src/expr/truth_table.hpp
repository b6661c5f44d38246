#pragma once

// Dense truth tables over a small ordered support (<= 20 variables).
//
// Row index encodes the assignment: bit j of the row index is the value of
// the j-th support variable.  Tables are the exact semantic backend for
// small expressions: equivalence, complement checks, and Quine-McCluskey
// resynthesis all operate on them.

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace hts::expr {

inline constexpr std::uint32_t kMaxTruthTableVars = 20;

class TruthTable {
 public:
  TruthTable() = default;

  explicit TruthTable(std::uint32_t n_vars) : n_vars_(n_vars) {
    HTS_CHECK_MSG(n_vars <= kMaxTruthTableVars, "truth table support too large");
    bits_.assign(word_count(n_vars), 0);
  }

  /// Words holding a table over n_vars variables (see words()).
  [[nodiscard]] static std::size_t word_count(std::uint32_t n_vars) {
    return n_vars < 6 ? 1 : std::size_t{1} << (n_vars - 6);
  }

  [[nodiscard]] std::uint32_t n_vars() const { return n_vars_; }
  [[nodiscard]] std::uint64_t n_rows() const { return 1ULL << n_vars_; }

  [[nodiscard]] bool get(std::uint64_t row) const {
    HTS_DCHECK(row < n_rows());
    return ((bits_[row >> 6] >> (row & 63)) & 1ULL) != 0;
  }

  void set(std::uint64_t row, bool value) {
    HTS_DCHECK(row < n_rows());
    const std::uint64_t mask = 1ULL << (row & 63);
    if (value) {
      bits_[row >> 6] |= mask;
    } else {
      bits_[row >> 6] &= ~mask;
    }
  }

  /// Builds the table of the j-th support variable (the classic 0101.. /
  /// 00110011.. patterns).
  [[nodiscard]] static TruthTable projection(std::uint32_t n_vars, std::uint32_t j);

  [[nodiscard]] static TruthTable constant(std::uint32_t n_vars, bool value);

  /// Word w of projection(n_vars, j) for any n_vars > j, before the rows
  /// past n_rows() are cleared.
  [[nodiscard]] static std::uint64_t projection_word(std::uint32_t j, std::size_t w);

  /// The table whose words() are `words` (word_count(n_vars) of them), with
  /// the rows past n_rows() cleared.
  [[nodiscard]] static TruthTable from_words(std::uint32_t n_vars,
                                             std::span<const std::uint64_t> words);

  [[nodiscard]] TruthTable operator~() const;

  [[nodiscard]] bool operator==(const TruthTable& other) const;

  [[nodiscard]] bool is_constant_false() const;
  [[nodiscard]] bool is_constant_true() const;

  /// Number of rows set to 1.
  [[nodiscard]] std::uint64_t popcount() const;

  /// Row indices of all ones (the minterms).
  [[nodiscard]] std::vector<std::uint64_t> minterms() const;

  /// The rows packed 64 per word: bit r of word w is row 64 * w + r.  Rows
  /// past n_rows() in the last word are zero.
  [[nodiscard]] std::span<const std::uint64_t> words() const { return bits_; }

 private:
  /// Masks off the unused tail bits of the last word for n_vars < 6.
  void trim();

  std::uint32_t n_vars_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace hts::expr
