#pragma once

// Core SAT types shared by the whole library.
//
// Variables are 0-based indices internally; DIMACS 1-based numbering is
// confined to the parser/writer.  Literals use the MiniSat encoding
// lit = 2*var + sign so that negation is an XOR and literals index arrays
// directly (watch lists, polarity tables).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace hts::cnf {

using Var = std::uint32_t;

inline constexpr Var kInvalidVar = static_cast<Var>(-1);

class Lit {
 public:
  constexpr Lit() = default;

  constexpr Lit(Var var, bool negated) : code_(2 * var + (negated ? 1u : 0u)) {}

  /// Builds from a DIMACS-style signed integer (nonzero; 1-based).
  [[nodiscard]] static constexpr Lit from_dimacs(int dimacs) {
    const auto var = static_cast<Var>((dimacs > 0 ? dimacs : -dimacs) - 1);
    return Lit(var, dimacs < 0);
  }

  [[nodiscard]] constexpr Var var() const { return code_ >> 1; }
  [[nodiscard]] constexpr bool negated() const { return (code_ & 1u) != 0; }
  [[nodiscard]] constexpr Lit operator~() const { return Lit(code_ ^ 1u); }

  /// Raw code for direct array indexing (2*var + sign).
  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }

  [[nodiscard]] constexpr int to_dimacs() const {
    const int v = static_cast<int>(var()) + 1;
    return negated() ? -v : v;
  }

  /// Truth value of this literal under a 0/1 assignment to its variable.
  [[nodiscard]] constexpr bool value_under(bool var_value) const {
    return negated() ? !var_value : var_value;
  }

  constexpr auto operator<=>(const Lit&) const = default;

 private:
  explicit constexpr Lit(std::uint32_t code) : code_(code) {}
  std::uint32_t code_ = static_cast<std::uint32_t>(-1);
};

using Clause = std::vector<Lit>;

/// A complete 0/1 assignment; index = variable.
using Assignment = std::vector<std::uint8_t>;

/// Three-valued assignment used by the solver (0=false, 1=true, 2=unassigned).
enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

[[nodiscard]] inline std::string to_string(Lit lit) {
  return std::to_string(lit.to_dimacs());
}

}  // namespace hts::cnf

template <>
struct std::hash<hts::cnf::Lit> {
  std::size_t operator()(hts::cnf::Lit lit) const noexcept {
    return std::hash<std::uint32_t>()(lit.code());
  }
};
