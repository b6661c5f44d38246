// Unit test of the benchmark's percentile and ratio helpers.  Plain checks,
// no framework: the benchmark build must not depend on a test library.
// Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Linear interpolation between closest ranks.
  check(near(percentile({}, 50.0), 0.0), "empty sample reads 0");
  check(near(percentile({7.0}, 90.0), 7.0), "single sample is every percentile");
  check(near(median({1.0, 2.0, 3.0, 4.0}), 2.5), "even-count median interpolates");
  check(near(median({5.0, 1.0, 3.0}), 3.0), "odd-count median is the middle");
  check(near(percentile(one_to(11), 90.0), 10.0), "p90 of 1..11 is 10");
  check(near(percentile(one_to(101), 90.0), 91.0), "p90 of 1..101 is 91");
  check(near(percentile({0.0, 10.0}, 25.0), 2.5), "p25 between two samples");
  check(near(percentile(one_to(5), 0.0), 1.0), "p0 is the minimum");
  check(near(percentile(one_to(5), 100.0), 5.0), "p100 is the maximum");

  // Samples beyond a percentile, and the tail choice built on it.
  check(samples_beyond(100, 90.0) == 10, "100 samples: 10 beyond p90");
  check(samples_beyond(99, 90.0) == 9, "99 samples: 9 beyond p90");
  check(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  check(samples_beyond(10, 50.0) == 5, "10 samples: 5 beyond the median");
  check(samples_beyond(0, 90.0) == 0, "no samples: none beyond");
  check(tail_percentile(100) == 90.0, "100 samples support p90, not p95");
  check(tail_percentile(200) == 95.0, "200 samples support p95");
  check(tail_percentile(1000) == 99.0, "1000 samples support p99");
  check(tail_percentile(10000) == 99.9, "10000 samples support p99.9");
  check(tail_percentile(40) == 75.0, "40 samples support only p75");
  check(tail_percentile(12) == 50.0, "12 samples fall back to the median");

  // Ratios keep their base and never divide by zero.
  const Ratio r{3.0, 120.0};
  check(near(r.value(), 0.025), "ratio value");
  check(r.str() == "3/120 = 0.025", "ratio prints its base");
  check(near(Ratio{5.0, 0.0}.value(), 0.0), "zero base reads 0");
  check(near(rate(500.0, 2.0).value(), 250.0), "rate is count per second");

  if (failures == 0) std::printf("perfbench stats helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
