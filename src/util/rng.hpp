#pragma once

// Deterministic, fast pseudo-random number generation.
//
// All stochastic components in the library (sampler initialization, random
// polarities in the CDCL baselines, instance generators) draw from Rng so a
// single 64-bit seed reproduces an entire experiment end to end.
//
// Gaussian draws use the Marsaglia polar method: each attempt consumes two
// uniform outputs, and an accepted attempt yields a pair of normals, the
// second kept as a spare for the next call.  fill_gaussian() writes the
// next n of those draws in one call, on a ThreadPool when it has one.  It
// stays exact because xoshiro256**'s state transition is linear over
// GF(2): skipping kJumpStride outputs is one fixed 256x256 bit matrix, so
// the stream cuts into stride-long chunks whose start states are known
// without generating them.  The fill counts each chunk's accepted attempts
// in parallel, prefix-sums the counts into each chunk's first draw index,
// and regenerates the chunks in parallel, each writing its draws where the
// serial calls would have put them.  Every draw, serial or replayed, goes
// through the same step(), polar_attempt() and sqrt_neg2log().

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace hts::util {

class ThreadPool;

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
  /// Uniform outputs one jump() skips, and the chunk length of a parallel
  /// fill_gaussian(): 2^14 outputs, i.e. 8,192 polar attempts.
  static constexpr std::size_t kJumpStride = std::size_t{1} << 14;

  /// fill_gaussian() runs serially below this many draws (about five
  /// strides' worth), where two pool dispatches would cost more than they
  /// save.
  static constexpr std::size_t kParallelFillMin = 4 * kJumpStride;

  explicit Rng(std::uint64_t seed = 0x5eed5a175a3cfULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  [[nodiscard]] std::uint64_t next_u64() { return step(state_); }

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
  [[nodiscard]] double next_double() { return unit_double(next_u64()); }

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
    Polar p;
    while (!polar_attempt(state_, p)) {
    }
    const double mul = sqrt_neg2log(p.s);
    spare_ = p.v * mul;
    has_spare_ = true;
    return p.u * mul;
  }

  /// Writes the next n standard normals: draw k, the value the k-th of n
  /// next_gaussian() calls would return, lands as
  /// `static_cast<float>(draw) * scale` in the slot a cursor yields.
  /// `seek(k)` returns a cursor for draw k; each cursor() call returns the
  /// float slot of the cursor's next draw (k, k + 1, ...) and advances.
  /// Distinct draws must map to distinct slots.  Afterwards the state and
  /// the spare are exactly what those n calls would leave, so the stream
  /// continues unchanged.  With a pool and at least kParallelFillMin draws
  /// the draws are replayed chunk-parallel on the pool (see the header
  /// comment); otherwise they run in one serial loop.  Either way the
  /// slots hold the same bits whatever the pool size.
  template <typename Seek>
  void fill_gaussian(std::size_t n, float scale, Seek&& seek, ThreadPool* pool) {
    if (n == 0) return;
    std::size_t k = 0;
    if (has_spare_) {
      auto at = seek(0);
      at() = static_cast<float>(spare_) * scale;
      has_spare_ = false;
      k = 1;
    }
    const std::size_t rest = n - k;
    if (pool == nullptr || rest < kParallelFillMin) {
      auto at = seek(k);
      state_ = write_draws(state_, rest, scale, at, spare_);
      has_spare_ = rest % 2 == 1;
      return;
    }
    replay_parallel(rest, *pool,
                    [&](const State& start, std::size_t first, std::size_t count,
                        double& spare) {
                      auto at = seek(k + first);
                      return write_draws(start, count, scale, at, spare);
                    });
  }

  /// Advances the state by kJumpStride outputs in one matrix product —
  /// exactly what kJumpStride next_u64() calls would do.  The spare, if
  /// any, is kept.
  void jump() { state_ = jumped(state_); }

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
  using State = std::array<std::uint64_t, 4>;

  /// One polar attempt: a point of the square (-1, 1)^2 and its squared
  /// radius.
  struct Polar {
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
  };

  /// A parallel replay's chunk job: writes replayed draws [first, first +
  /// count) from the chunk's start state `start`, returns the state after
  /// its last accepted attempt, and sets `spare` when count is odd.
  using ChunkWriter =
      std::function<State(const State& start, std::size_t first,
                          std::size_t count, double& spare)>;

  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// The xoshiro256** step: returns the output and advances `s`.
  [[nodiscard]] static std::uint64_t step(State& s) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  [[nodiscard]] static double unit_double(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /// Draws one polar attempt from `s`; true when it is accepted (the point
  /// lies strictly inside the unit circle and off the origin).
  static bool polar_attempt(State& s, Polar& p) {
    p.u = 2.0 * unit_double(step(s)) - 1.0;
    p.v = 2.0 * unit_double(step(s)) - 1.0;
    p.s = p.u * p.u + p.v * p.v;
    return p.s < 1.0 && p.s != 0.0;
  }

  /// The serial polar loop of fill_gaussian: `count` draws from state `s`
  /// through cursor `at`, the first of each accepted pair before the
  /// second, exactly as next_gaussian() hands them out.  An odd count
  /// leaves the final pair's second draw in `spare`.  Returns the state
  /// after the last accepted attempt.
  template <typename Cursor>
  [[nodiscard]] static State write_draws(State s, std::size_t count,
                                         float scale, Cursor& at,
                                         double& spare) {
    Polar p;
    for (std::size_t k = 0; k < count;) {
      if (!polar_attempt(s, p)) continue;
      const double mul = sqrt_neg2log(p.s);
      at() = static_cast<float>(p.u * mul) * scale;
      if (++k == count) {
        spare = p.v * mul;
        break;
      }
      at() = static_cast<float>(p.v * mul) * scale;
      ++k;
    }
    return s;
  }

  /// `s` advanced by kJumpStride outputs (see jump()).
  [[nodiscard]] static State jumped(const State& s);

  /// The parallel part of fill_gaussian: n draws with no spare pending on
  /// entry.  Sets the state and the spare as n next_gaussian() calls would.
  void replay_parallel(std::size_t n, ThreadPool& pool, const ChunkWriter& write);

  [[nodiscard]] static double sqrt_neg2log(double s);

  State state_ = {};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace hts::util
