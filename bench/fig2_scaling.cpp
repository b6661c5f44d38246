// Reproduces Fig. 2: log-log scatter of latency (ms) vs number of unique
// satisfying solutions for each sampler across the 60-instance suite, plus
// per-sampler log-log trend lines (least-squares fit, like the paper's
// dotted lines).
//
// One row per (instance, sampler): latency to reach its final unique count
// within the budget.  The paper's shape: "this work" sits orders of
// magnitude right/below the CPU samplers — high solution counts at low
// latency — with the flattest trend.

#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.hpp"

namespace {

struct Point {
  double uniques;
  double latency_ms;
};

/// Least-squares fit of log10(latency) = a + b * log10(uniques).
void fit_loglog(const std::vector<Point>& points, double& a, double& b) {
  double sx = 0;
  double sy = 0;
  double sxx = 0;
  double sxy = 0;
  std::size_t n = 0;
  for (const Point& p : points) {
    if (p.uniques <= 0 || p.latency_ms <= 0) continue;
    const double x = std::log10(p.uniques);
    const double y = std::log10(p.latency_ms);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) {
    a = 0;
    b = 0;
    return;
  }
  const double dn = static_cast<double>(n);
  b = (dn * sxy - sx * sy) / std::max(1e-12, dn * sxx - sx * sx);
  a = (sy - b * sx) / dn;
}

}  // namespace

int bench_main(int /*argc*/, char** /*argv*/) {
  using namespace hts;
  bench::BenchEnv env;
  // Fig. 2 visits 60 instances x 4 samplers: default to a tighter budget so
  // the whole sweep stays tractable; HTS_BENCH_BUDGET_MS still overrides.
  env.budget_ms = util::env_double("HTS_BENCH_BUDGET_MS", 600.0);

  std::printf("=== Fig. 2: latency vs unique solutions (60 instances) ===\n");
  std::printf("budget %.0f ms per run, target %zu uniques, scale %.2f\n\n",
              env.budget_ms, env.min_solutions, env.scale);

  util::Table table({"Instance", "Sampler", "Unique", "Latency(ms)"});
  std::map<std::string, std::vector<Point>> series;

  for (const std::string& name : benchgen::suite60_names()) {
    std::fprintf(stderr, "[fig2] %s ...\n", name.c_str());
    const benchgen::Instance instance = bench::make_scaled_instance(name, env);
    const auto& formula = instance.formula;

    std::vector<std::pair<std::string, sampler::RunResult>> results;
    {
      auto ours = bench::make_ours(env, formula.n_vars());
      results.emplace_back(ours->name(), ours->run(formula, bench::run_options(env)));
    }
    for (const auto& baseline : bench::make_baselines(env, formula.n_vars())) {
      results.emplace_back(baseline->name(),
                           baseline->run(formula, bench::run_options(env)));
    }
    for (const auto& [sampler_name, result] : results) {
      table.add_row({name, sampler_name, std::to_string(result.n_unique),
                     util::format_fixed(result.elapsed_ms, 2)});
      series[sampler_name].push_back(
          Point{static_cast<double>(result.n_unique), result.elapsed_ms});
    }
  }

  std::printf("%s\n", table.to_string().c_str());

  std::printf("log-log trend lines  log10(latency_ms) = a + b*log10(uniques):\n");
  for (const auto& [sampler_name, points] : series) {
    double a = 0;
    double b = 0;
    fit_loglog(points, a, b);
    double total_uniques = 0;
    double total_ms = 0;
    for (const Point& p : points) {
      total_uniques += p.uniques;
      total_ms += p.latency_ms;
    }
    std::printf("  %-22s a=%7.3f  b=%6.3f   (suite total: %.0f uniques in %.0f ms"
                " -> %.1f sol/s)\n",
                sampler_name.c_str(), a, b, total_uniques, total_ms,
                total_ms > 0 ? total_uniques / (total_ms / 1e3) : 0.0);
  }
  std::printf("\nCSV:\n%s", table.to_csv().c_str());
  std::printf("\nPaper reference: 'this work' reaches 1e5-1e7 uniques at latencies\n"
              "where the CPU samplers deliver 1e1-1e3, with only a slight latency\n"
              "increase as the solution count grows (flattest trend line).\n");
  return 0;
}

int main(int argc, char** argv) {
  return hts::bench::run_main(bench_main, argc, argv);
}
