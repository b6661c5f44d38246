// Tests for the util substrate: RNG determinism/statistics, timers, thread
// pool correctness under contention, table formatting, env knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <set>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hts::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedReproduces) {
  Rng rng(7);
  const std::uint64_t first = rng.next_u64();
  (void)rng.next_u64();
  rng.reseed(7);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Timer, MeasuresElapsed) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  EXPECT_GT(timer.nanoseconds(), 0u);
  EXPECT_GE(timer.seconds(), 0.0);
}

TEST(ThreadPool, CoversFullRangeOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t begin, std::size_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(97, [&](std::size_t begin, std::size_t end) {
      total += end - begin;
    });
  }
  EXPECT_EQ(total.load(), 97u * 200);
}

TEST(ThreadPool, ZeroRangeIsNoopEvenOnBusyPool) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(1000, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  const int after_warmup = calls.load();
  pool.parallel_for(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), after_warmup);
}

TEST(ThreadPool, FewerItemsThanThreadsCoversExactly) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, CompletesWithoutException) {
  ThreadPool pool(4);
  EXPECT_NO_THROW({
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(round, [](std::size_t, std::size_t) {});
    }
  });
}

// Round-parallel workers all dispatch data-parallel kernels through the one
// global pool; concurrent parallel_for calls from distinct caller threads
// must each see their full range covered exactly once.
TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 5000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(kN, [&, c](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) hits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[c][i].load(), 20) << c << ' ' << i;
  }
}

TEST(Rng, StreamIsDeterministicPerId) {
  Rng a = Rng::stream(99, 3);
  Rng b = Rng::stream(99, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDecorrelated) {
  Rng a = Rng::stream(99, 0);
  Rng b = Rng::stream(99, 1);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamIndependentOfParentConsumption) {
  // stream() must not depend on any generator state — only on (seed, id) —
  // so worker streams are schedule-independent.
  Rng parent(5);
  (void)parent.next_u64();
  Rng a = Rng::stream(5, 2);
  Rng b = Rng::stream(5, 2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, JumpEqualsStepping) {
  // The stride matrix applied to a state is kJumpStride steps, from any
  // state, including one already jumped.
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
    Rng jumped(seed);
    Rng stepped(seed);
    for (int round = 0; round < 2; ++round) {
      jumped.jump();
      for (std::size_t i = 0; i < Rng::kJumpStride; ++i) (void)stepped.next_u64();
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(jumped.next_u64(), stepped.next_u64()) << seed << ' ' << round;
      }
    }
  }
}

TEST(Rng, GaussianFillMatchesSerialDraws) {
  // The fill writes exactly the floats n next_gaussian() calls give, leaves
  // the stream where they would, and does so on any pool size: sizes
  // straddle the stride, the parallel threshold and many strides, with and
  // without a spare pending on entry.  Draws land in reverse order so every
  // cursor must be sought at its own draw index.
  constexpr float kScale = 2.0f;
  constexpr std::size_t kStride = Rng::kJumpStride;
  const std::vector<std::size_t> sizes = {0, 1, 2, 3, kStride - 1, kStride + 1,
                                          Rng::kParallelFillMin - 1,
                                          Rng::kParallelFillMin,
                                          5 * kStride + 1, 200001};
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : sizes) {
      for (const bool spare : {false, true}) {
        Rng serial(1000 + n);
        Rng filled(1000 + n);
        if (spare) {
          (void)serial.next_gaussian();
          (void)filled.next_gaussian();
        }
        std::vector<float> want(n);
        for (std::size_t k = 0; k < n; ++k) {
          want[n - 1 - k] = static_cast<float>(serial.next_gaussian()) * kScale;
        }
        std::vector<float> got(n, std::nanf(""));
        filled.fill_gaussian(
            n, kScale,
            [&](std::size_t k) {
              return [&got, i = n - 1 - k]() mutable -> float& {
                return got[i--];
              };
            },
            &pool);
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[k]),
                    std::bit_cast<std::uint32_t>(want[k]))
              << "threads " << threads << " n " << n << " spare " << spare
              << " slot " << k;
        }
        for (int i = 0; i < 5; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(filled.next_gaussian()),
                    std::bit_cast<std::uint64_t>(serial.next_gaussian()))
              << "threads " << threads << " n " << n << " spare " << spare
              << " draw after " << i;
        }
      }
    }
  }
}

TEST(Table, AlignsAndRendersRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvQuotesGroupedNumbers) {
  Table table({"a"});
  table.add_row({format_grouped(1234567.8)});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"1,234,567.8\""), std::string::npos);
}

TEST(TableFormat, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 1), "-1.0");
}

TEST(TableFormat, Grouped) {
  EXPECT_EQ(format_grouped(4777137.7), "4,777,137.7");
  EXPECT_EQ(format_grouped(999.0, 0), "999");
  EXPECT_EQ(format_grouped(-12345.0, 0), "-12,345");
  EXPECT_EQ(format_grouped(0.5, 1), "0.5");
}

TEST(TableFormat, Si) {
  EXPECT_EQ(format_si(2470000.0), "2.47M");
  EXPECT_EQ(format_si(1500.0), "1.50k");
  EXPECT_EQ(format_si(12.0), "12.00");
}

TEST(TableFormat, Speedup) { EXPECT_EQ(format_speedup(523.64), "523.6x"); }

TEST(Env, DoubleFallbackAndParse) {
  ::unsetenv("HTS_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(env_double("HTS_TEST_ENV_D", 1.5), 1.5);
  ::setenv("HTS_TEST_ENV_D", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("HTS_TEST_ENV_D", 1.5), 2.25);
  ::setenv("HTS_TEST_ENV_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_double("HTS_TEST_ENV_D", 1.5), 1.5);
  ::unsetenv("HTS_TEST_ENV_D");
}

TEST(Env, IntFallbackAndParse) {
  ::unsetenv("HTS_TEST_ENV_I");
  EXPECT_EQ(env_int("HTS_TEST_ENV_I", 7), 7);
  ::setenv("HTS_TEST_ENV_I", "42", 1);
  EXPECT_EQ(env_int("HTS_TEST_ENV_I", 7), 42);
  ::unsetenv("HTS_TEST_ENV_I");
}

TEST(StopToken, DefaultTokenNeverStops) {
  StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, ObservesItsSource) {
  StopSource source;
  StopToken token = source.token();
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(source.stop_requested());
}

TEST(StopToken, TokenOutlivesSource) {
  StopToken token;
  {
    StopSource source;
    token = source.token();
    source.request_stop();
  }
  EXPECT_TRUE(token.stop_requested());  // shared flag, no dangling
}

TEST(StopToken, CopiedTokensShareTheFlag) {
  StopSource source;
  const StopToken a = source.token();
  const StopToken b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  source.request_stop();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(b.stop_requested());
}

TEST(StopToken, NoBudgetNeverStops) {
  StopSource source;
  for (const double budget_ms : {0.0, -1.0}) {
    const StopToken token = source.token().with_budget(budget_ms);
    EXPECT_FALSE(token.stop_requested());
    EXPECT_GT(token.remaining_ms(), 1e17);
  }
  EXPECT_GT(StopToken().remaining_ms(), 1e17);
}

TEST(StopToken, TinyBudgetStops) {
  const StopToken token = StopToken().with_budget(0.0001);
  EXPECT_TRUE(token.stop_possible());
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_TRUE(token.stop_requested());
  EXPECT_LT(token.remaining_ms(), 0.0);
}

TEST(StopToken, FiredSourceStopsWhateverTheBudget) {
  StopSource source;
  const StopToken token = source.token().with_budget(60000.0);
  EXPECT_FALSE(token.stop_requested());
  EXPECT_GT(token.remaining_ms(), 1000.0);
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
}

// --- fault injector ----------------------------------------------------------

TEST(FaultInjector, EmptyAndNoneSpecsAreDisarmedNoOps) {
  for (const char* spec : {"", "none"}) {
    FaultInjector injector = FaultInjector::from_spec(spec);
    EXPECT_FALSE(injector.armed());
    for (int i = 0; i < 100; ++i) {
      EXPECT_NO_THROW(injector.maybe_fault("compile"));
    }
    EXPECT_EQ(injector.hits("compile"), 0u);  // disarmed: not even counted
  }
}

TEST(FaultInjector, EveryTriggerFiresAtExactIndices) {
  FaultInjector injector = FaultInjector::from_spec("slice:every=3");
  std::vector<std::uint64_t> fired;
  for (std::uint64_t i = 0; i < 9; ++i) {
    try {
      injector.maybe_fault("slice");
    } catch (const FaultError& fault) {
      EXPECT_EQ(fault.site(), "slice");
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 5, 8}));
  EXPECT_EQ(injector.hits("slice"), 9u);
  EXPECT_EQ(injector.injected("slice"), 3u);
}

TEST(FaultInjector, AtTriggerWithMaxAndKinds) {
  FaultInjector injector = FaultInjector::from_spec(
      "compile:at=0,2:kind=bad_alloc;harvest:every=1:max=2:kind=transient");
  EXPECT_THROW(injector.maybe_fault("compile"), std::bad_alloc);   // hit 0
  EXPECT_NO_THROW(injector.maybe_fault("compile"));                // hit 1
  EXPECT_THROW(injector.maybe_fault("compile"), std::bad_alloc);   // hit 2
  EXPECT_NO_THROW(injector.maybe_fault("compile"));                // hit 3
  // every=1 with max=2: first two hits only, and the transient type.
  EXPECT_THROW(injector.maybe_fault("harvest"), TransientFaultError);
  EXPECT_THROW(injector.maybe_fault("harvest"), FaultError);  // base class too
  EXPECT_NO_THROW(injector.maybe_fault("harvest"));
  // A site no rule names never throws but is not tracked either.
  EXPECT_NO_THROW(injector.maybe_fault("stream_push"));
  EXPECT_EQ(injector.hits("stream_push"), 0u);
}

TEST(FaultInjector, ProbTriggerIsDeterministicInSeedSiteAndIndex) {
  const std::string spec = "seed=99;slice:prob=0.3";
  auto run = [&](const char* site, int n) {
    FaultInjector injector = FaultInjector::from_spec(spec);
    std::vector<bool> pattern;
    for (int i = 0; i < n; ++i) {
      bool threw = false;
      try {
        injector.maybe_fault(site);
      } catch (const FaultError&) {
        threw = true;
      }
      pattern.push_back(threw);
    }
    return pattern;
  };
  const std::vector<bool> first = run("slice", 200);
  EXPECT_EQ(first, run("slice", 200));  // same spec -> identical injections
  const auto fires = static_cast<double>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires / 200.0, 0.15);  // loose band around p=0.3
  EXPECT_LT(fires / 200.0, 0.45);
  // A different seed draws a different pattern.
  FaultInjector other = FaultInjector::from_spec("seed=100;slice:prob=0.3");
  std::vector<bool> other_pattern;
  for (int i = 0; i < 200; ++i) {
    bool threw = false;
    try {
      other.maybe_fault("slice");
    } catch (const FaultError&) {
      threw = true;
    }
    other_pattern.push_back(threw);
  }
  EXPECT_NE(first, other_pattern);
}

TEST(FaultInjector, MalformedSpecsThrowLoudly) {
  for (const char* spec :
       {"compile",                        // no trigger
        "compile:sometimes",              // unknown trigger
        "compile:every=0",                // zero period
        "compile:prob=1.5",               // out of range
        "compile:prob=0.5:max=3",         // max with prob
        "compile:at=1:kind=explode",      // unknown kind
        "compile:at=x",                   // malformed number
        ":at=1",                          // empty site
        "compile:at=1;compile:at=2"}) {   // duplicate site
    EXPECT_THROW((void)FaultInjector::from_spec(spec), std::invalid_argument)
        << spec;
  }
}

}  // namespace
}  // namespace hts::util
