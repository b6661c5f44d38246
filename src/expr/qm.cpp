#include "expr/qm.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace hts::expr {

int Cube::n_literals() const { return std::popcount(mask); }

namespace {

struct CubeKey {
  std::size_t operator()(const Cube& c) const noexcept {
    return std::hash<std::uint64_t>()((std::uint64_t{c.mask} << 32) | c.value);
  }
};

/// All prime implicants of tt by iterative pairwise merging.
std::vector<Cube> prime_implicants(const TruthTable& tt) {
  const std::uint32_t n = tt.n_vars();
  const std::uint32_t full_mask =
      n >= 32 ? ~0u : ((n == 0) ? 0u : ((1u << n) - 1));

  std::unordered_set<Cube, CubeKey> current;
  for (const std::uint64_t m : tt.minterms()) {
    current.insert(Cube{full_mask, static_cast<std::uint32_t>(m)});
  }

  std::vector<Cube> primes;
  while (!current.empty()) {
    std::unordered_set<Cube, CubeKey> next;
    std::unordered_set<Cube, CubeKey> merged;
    const std::vector<Cube> cubes(current.begin(), current.end());
    // Group-by-mask then try merging cubes that differ in exactly one tested
    // bit.  The quadratic scan is fine at QM's intended scale (<= 10 vars).
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      for (std::size_t j = i + 1; j < cubes.size(); ++j) {
        if (cubes[i].mask != cubes[j].mask) continue;
        const std::uint32_t diff = cubes[i].value ^ cubes[j].value;
        if (std::popcount(diff) != 1) continue;
        next.insert(Cube{cubes[i].mask & ~diff, cubes[i].value & ~diff});
        merged.insert(cubes[i]);
        merged.insert(cubes[j]);
      }
    }
    for (const Cube& c : cubes) {
      if (!merged.contains(c)) primes.push_back(c);
    }
    current = std::move(next);
  }
  return primes;
}

}  // namespace

std::vector<Cube> minimize_sop(const TruthTable& tt) {
  if (tt.is_constant_false()) return {};
  if (tt.is_constant_true()) return {Cube{0, 0}};

  const std::vector<std::uint64_t> minterms = tt.minterms();
  std::vector<Cube> primes = prime_implicants(tt);

  // Coverage matrix: which primes cover each minterm.
  std::vector<std::vector<std::size_t>> covering(minterms.size());
  for (std::size_t p = 0; p < primes.size(); ++p) {
    for (std::size_t m = 0; m < minterms.size(); ++m) {
      if (primes[p].covers(minterms[m])) covering[m].push_back(p);
    }
  }

  std::vector<Cube> cover;
  std::vector<std::uint8_t> minterm_done(minterms.size(), 0);
  std::vector<std::uint8_t> prime_used(primes.size(), 0);

  // Essential primes: the sole cover of some minterm.
  for (std::size_t m = 0; m < minterms.size(); ++m) {
    if (covering[m].size() == 1) {
      const std::size_t p = covering[m][0];
      if (prime_used[p] == 0) {
        prime_used[p] = 1;
        cover.push_back(primes[p]);
      }
    }
  }
  for (std::size_t m = 0; m < minterms.size(); ++m) {
    for (const std::size_t p : covering[m]) {
      if (prime_used[p] != 0) {
        minterm_done[m] = 1;
        break;
      }
    }
  }

  // Greedy set cover for the rest: widest (fewest literals, then most new
  // minterms) first.
  for (;;) {
    std::size_t best = primes.size();
    std::size_t best_gain = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (prime_used[p] != 0) continue;
      std::size_t gain = 0;
      for (std::size_t m = 0; m < minterms.size(); ++m) {
        if (minterm_done[m] == 0 && primes[p].covers(minterms[m])) ++gain;
      }
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && best < primes.size() &&
           primes[p].n_literals() < primes[best].n_literals())) {
        best_gain = gain;
        best = p;
      }
    }
    if (best == primes.size() || best_gain == 0) break;
    prime_used[best] = 1;
    cover.push_back(primes[best]);
    for (std::size_t m = 0; m < minterms.size(); ++m) {
      if (minterm_done[m] == 0 && primes[best].covers(minterms[m])) {
        minterm_done[m] = 1;
      }
    }
  }

  // Irredundancy pass: drop cubes whose minterms are all covered elsewhere.
  for (std::size_t i = cover.size(); i-- > 0;) {
    bool redundant = true;
    for (const std::uint64_t m : minterms) {
      if (!cover[i].covers(m)) continue;
      bool covered_elsewhere = false;
      for (std::size_t j = 0; j < cover.size(); ++j) {
        if (j != i && cover[j].covers(m)) {
          covered_elsewhere = true;
          break;
        }
      }
      if (!covered_elsewhere) {
        redundant = false;
        break;
      }
    }
    if (redundant) cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(i));
  }

  std::sort(cover.begin(), cover.end(), [](const Cube& a, const Cube& b) {
    return std::tie(a.value, a.mask) < std::tie(b.value, b.mask);
  });
  return cover;
}

}  // namespace hts::expr
