#pragma once

// Deterministic, fast pseudo-random number generation.
//
// All stochastic components in the library (sampler initialization, random
// polarities in the CDCL baselines, instance generators) draw from Rng so a
// single 64-bit seed reproduces an entire experiment end to end.

#include <cstdint>
#include <utility>

namespace hts::util {

/// SplitMix64 — used to expand a user seed into generator state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Xoshiro256** PRNG.  Small state, excellent statistical quality, and much
/// faster than std::mt19937_64 — RNG throughput matters when randomizing
/// millions of unconstrained primary inputs per batch.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5a175a3cfULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be nonzero.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  [[nodiscard]] float next_float() {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Bernoulli draw.
  [[nodiscard]] bool next_bool(double p_true = 0.5) { return next_double() < p_true; }

  /// Standard normal via Marsaglia polar method (no trig).
  [[nodiscard]] double next_gaussian() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = 2.0 * next_double() - 1.0;
      v = 2.0 * next_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = sqrt_neg2log(s);
    spare_ = v * mul;
    has_spare_ = true;
    return u * mul;
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& items) {
    const std::uint64_t n = items.size();
    if (n < 2) return;
    for (std::uint64_t i = n - 1; i > 0; --i) {
      const std::uint64_t j = next_below(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Decorrelated stream `stream_id` of a base seed: the (seed, stream) pair
  /// is expanded through two SplitMix64 steps so worker i's sequence shares
  /// no lattice structure with worker j's even for adjacent ids.  The result
  /// depends only on (seed, stream_id), never on how much of any parent
  /// sequence was consumed — round-parallel workers get schedule-independent
  /// streams.
  [[nodiscard]] static Rng stream(std::uint64_t seed, std::uint64_t stream_id) {
    std::uint64_t sm = seed;
    sm = splitmix64(sm) + stream_id * 0x9e3779b97f4a7c15ULL;
    return Rng(splitmix64(sm));
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  [[nodiscard]] static double sqrt_neg2log(double s);

  std::uint64_t state_[4] = {};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace hts::util
