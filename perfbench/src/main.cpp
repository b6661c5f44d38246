// perfbench: one benchmark for the sampler and the service.
//
//   perfbench --workload <wide|deep|service> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha <sha>]
//             [--source-digest <hex>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics.  Every metric is printed by
// name with its unit and note; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exits 1 when any output
// fails its check (CNF re-check, request status, replica unique count).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <wide|deep|service>"
               " --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

int run(const Args& args) {
  const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.git_sha.c_str(), args.source_digest.c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, nproc);
  std::fflush(stdout);

  Outcome out;
  bool known = false;
  for (const StandaloneSpec& spec : standalone_specs()) {
    if (spec.name != args.workload) continue;
    known = true;
    out = args.trace ? trace_standalone(args, spec) : run_standalone(args, spec);
  }
  if (args.workload == "service") {
    known = true;
    out = args.trace ? trace_service(args, nproc) : run_service(args, nproc);
  }
  if (!known) usage(("unknown workload " + args.workload).c_str());

  for (const Metric& m : out.metrics) {
    std::printf("metric %-32s %16.6g %-6s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  const Ratio failed_ratio{static_cast<double>(out.failed), static_cast<double>(out.attempted)};
  std::printf("metric %-32s %16.6g %-6s (failed/attempted %s)\n", "failed_ratio",
              failed_ratio.value(), "ratio", failed_ratio.str().c_str());
  for (const std::string& error : out.errors) std::printf("FAILED: %s\n", error.c_str());

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + out.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
