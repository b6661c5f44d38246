#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/thread_pool.hpp"

namespace hts::util {

namespace {

/// A lower bound on the accepted attempts of most strides: the mean is
/// kJumpStride / 2 * pi / 4 = 6,434 with a standard deviation of 37, so
/// planning with 6,400 per stride covers a fill in one counting pass.
constexpr std::size_t kPlannedAcceptsPerStride = 6400;

}  // namespace

double Rng::sqrt_neg2log(double s) { return std::sqrt(-2.0 * std::log(s) / s); }

Rng::State Rng::jumped(const State& s) {
  // Column i of the stride matrix is basis state e_i advanced by
  // kJumpStride steps.  The step only xors, shifts and rotates state
  // words, so it is linear over GF(2): any state advanced by a stride is
  // the xor of the columns of its set bits.  Built once per process.
  static const std::array<State, 256> columns = [] {
    std::array<State, 256> built{};
    for (std::size_t i = 0; i < 256; ++i) {
      State basis{};
      basis[i / 64] = std::uint64_t{1} << (i % 64);
      for (std::size_t j = 0; j < kJumpStride; ++j) (void)step(basis);
      built[i] = basis;
    }
    return built;
  }();
  State out{};
  for (std::size_t i = 0; i < 256; ++i) {
    const std::uint64_t take = 0 - ((s[i / 64] >> (i % 64)) & 1);
    for (std::size_t w = 0; w < 4; ++w) out[w] ^= columns[i][w] & take;
  }
  return out;
}

void Rng::replay_parallel(std::size_t n, ThreadPool& pool,
                          const ChunkWriter& write) {
  const std::size_t pairs = (n + 1) / 2;
  // 1. Chunk c covers the stride of attempts starting at the state `c`
  // jumps ahead.  Count each chunk's accepted attempts in parallel until
  // the chunks hold every pair the fill needs.
  std::vector<State> starts;
  std::vector<std::size_t> accepted;
  State next = state_;
  std::size_t covered = 0;
  while (covered < pairs) {
    const std::size_t begin = starts.size();
    const std::size_t more = (pairs - covered) / kPlannedAcceptsPerStride + 1;
    for (std::size_t c = 0; c < more; ++c) {
      starts.push_back(next);
      next = jumped(next);
    }
    accepted.resize(begin + more);
    pool.parallel_for(more, [&](std::size_t lo, std::size_t hi) {
      Polar p;
      for (std::size_t c = begin + lo; c < begin + hi; ++c) {
        State s = starts[c];
        std::size_t hits = 0;
        for (std::size_t a = 0; a < kJumpStride / 2; ++a) {
          hits += polar_attempt(s, p) ? 1 : 0;
        }
        accepted[c] = hits;
      }
    });
    for (std::size_t c = begin; c < begin + more; ++c) covered += accepted[c];
  }
  // 2. Prefix sums give each chunk's first pair; the last chunk is the one
  // holding pair `pairs - 1`.
  std::vector<std::size_t> first_pair(accepted.size());
  std::size_t last = 0;
  for (std::size_t c = 0, sum = 0; c < accepted.size(); ++c) {
    first_pair[c] = sum;
    sum += accepted[c];
    if (sum >= pairs) {
      last = c;
      break;
    }
  }
  // 3. Regenerate chunks [0, last] in parallel, each writing its draws at
  // their serial positions; the last chunk stops at pair `pairs - 1` and
  // hands back the state and spare the serial calls would leave.
  State end_state{};
  double spare = 0.0;
  pool.parallel_for(last + 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::size_t first = 2 * first_pair[c];
      const std::size_t end =
          std::min(2 * (first_pair[c] + accepted[c]), n);
      double chunk_spare = 0.0;
      const State after = write(starts[c], first, end - first, chunk_spare);
      if (c == last) {
        end_state = after;
        spare = chunk_spare;
      }
    }
  });
  state_ = end_state;
  spare_ = spare;
  has_spare_ = n % 2 == 1;
}

}  // namespace hts::util
