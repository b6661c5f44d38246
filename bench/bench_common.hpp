#pragma once

// Shared plumbing for the paper-reproduction bench harnesses.
//
// Environment knobs (same spelling everywhere):
//   HTS_BENCH_BUDGET_MS      per sampler-instance time budget (default 1500;
//                            the paper used 2 h — raise this to approach it)
//   HTS_BENCH_MIN_SOLUTIONS  unique-solution target per run (paper: 1000)
//   HTS_BENCH_SCALE          size multiplier for the big instance families
//   HTS_BENCH_SEED           base RNG seed
//   HTS_BENCH_BATCH          gradient sampler batch size (0 = per-instance)
//
// A negative HTS_BENCH_MIN_SOLUTIONS or HTS_BENCH_BATCH prints a message
// naming the variable and exits with status 2, and so does any setting the
// library refuses with std::invalid_argument (see run_main).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/cmsgen_like.hpp"
#include "baselines/diff_sampler.hpp"
#include "baselines/unigen_like.hpp"
#include "benchgen/families.hpp"
#include "benchgen/suite.hpp"
#include "core/gradient_sampler.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace hts::bench {

/// Reads a count from the environment; a negative one exits with status 2
/// rather than wrap to a huge std::size_t.
inline std::size_t env_count(const char* name, std::int64_t fallback) {
  const std::int64_t value = util::env_int(name, fallback);
  if (value < 0) {
    std::fprintf(stderr, "%s must be >= 0 (got %lld)\n", name,
                 static_cast<long long>(value));
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

/// Runs a bench's body as its main.  A std::invalid_argument that escapes
/// the body (a setting the library refuses, such as a batch too large for
/// its buffers) prints its message and exits with status 2, as env_count
/// does, instead of aborting from std::terminate.
inline int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }
}

struct BenchEnv {
  double budget_ms = util::env_double("HTS_BENCH_BUDGET_MS", 1500.0);
  std::size_t min_solutions = env_count("HTS_BENCH_MIN_SOLUTIONS", 1000);
  double scale = util::env_double("HTS_BENCH_SCALE", 1.0);
  std::uint64_t seed =
      static_cast<std::uint64_t>(util::env_int("HTS_BENCH_SEED", 42));
  std::size_t batch = env_count("HTS_BENCH_BATCH", 0);
};

/// Batch size heuristic mirroring the paper's "100 to 1,000,000 depending on
/// the instance": big batches for small circuits, smaller for giants.
inline std::size_t pick_batch(const BenchEnv& env, std::size_t n_vars) {
  if (env.batch != 0) return env.batch;
  if (n_vars < 1000) return 65536;
  if (n_vars < 20000) return 8192;
  return 2048;
}

inline benchgen::Instance make_scaled_instance(const std::string& name,
                                               const BenchEnv& env) {
  benchgen::GenOptions options;
  options.scale = env.scale;
  return benchgen::make_instance(name, options);
}

inline sampler::RunOptions run_options(const BenchEnv& env) {
  sampler::RunOptions options;
  options.min_solutions = env.min_solutions;
  options.budget_ms = env.budget_ms;
  options.seed = env.seed;
  return options;
}

inline std::unique_ptr<sampler::GradientSampler> make_ours(
    const BenchEnv& env, std::size_t n_vars,
    tensor::Policy policy = tensor::Policy::kDataParallel) {
  sampler::GradientConfig config;
  config.batch = pick_batch(env, n_vars);
  config.policy = policy;
  return std::make_unique<sampler::GradientSampler>(config);
}

inline std::vector<std::unique_ptr<sampler::Sampler>> make_baselines(
    const BenchEnv& env, std::size_t n_vars) {
  std::vector<std::unique_ptr<sampler::Sampler>> list;
  list.push_back(std::make_unique<baselines::UniGenLike>());
  list.push_back(std::make_unique<baselines::CmsGenLike>());
  baselines::DiffSamplerConfig diff;
  diff.batch = pick_batch(env, n_vars);
  list.push_back(std::make_unique<baselines::DiffSampler>(diff));
  return list;
}

/// "TO" when a sampler timed out below the target with (near-)zero yield,
/// mirroring the paper's Table II cells.
inline std::string throughput_cell(const sampler::RunResult& result,
                                   std::size_t min_solutions) {
  if (result.n_unique == 0) return "TO";
  if (result.timed_out && result.n_unique < min_solutions / 20) return "TO";
  return util::format_grouped(result.throughput(), 1);
}

// --- machine-readable results -------------------------------------------------
//
// Benches accept `--json <path>` and mirror their result rows into
//   { "bench": <name>, "env": {...}, "records": [ {...}, ... ] }
// so runs can be archived as BENCH_<name>.json and diffed across commits —
// the perf trajectory lives next to the human-readable tables.

/// One flat JSON object built field by field (insertion order preserved).
class JsonRecord {
 public:
  JsonRecord& field(const std::string& name, const std::string& value) {
    std::string escaped;
    escaped.reserve(value.size() + 2);
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') {
        escaped += '\\';
        escaped += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(ch)));
        escaped += buffer;
      } else {
        escaped += ch;
      }
    }
    return raw(name, "\"" + escaped + "\"");
  }
  JsonRecord& field(const std::string& name, const char* value) {
    return field(name, std::string(value));
  }
  JsonRecord& field(const std::string& name, double value) {
    if (!std::isfinite(value)) return raw(name, "null");  // JSON has no Inf/NaN
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    return raw(name, buffer);
  }
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonRecord& field(const std::string& name, T value) {
    return raw(name, std::to_string(value));
  }
  JsonRecord& field(const std::string& name, bool value) {
    return raw(name, value ? "true" : "false");
  }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonRecord& raw(const std::string& name, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// Collects records and writes the bench JSON file.  Inactive (all calls
/// no-ops) unless `--json <path>` was passed on the command line.
class JsonWriter {
 public:
  JsonWriter(int argc, char** argv, std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "[%s] --json requires a path argument\n",
                       bench_name_.c_str());
          missing_path_ = true;
          break;
        }
        path_ = argv[i + 1];
        break;
      }
    }
  }

  [[nodiscard]] bool active() const { return !path_.empty(); }

  void add(const JsonRecord& record) {
    if (active()) records_.push_back(record.str());
  }

  /// Writes the file and reports where; returns false (with a message on
  /// stderr) when the path is not writable or `--json` came without one.
  bool write(const BenchEnv& env) const {
    if (!active()) return !missing_path_;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "[%s] cannot write %s\n", bench_name_.c_str(),
                   path_.c_str());
      return false;
    }
    JsonRecord env_record;
    env_record.field("budget_ms", env.budget_ms)
        .field("min_solutions", env.min_solutions)
        .field("scale", env.scale)
        .field("seed", env.seed)
        .field("batch", env.batch);
    out << "{\n  \"bench\": \"" << bench_name_ << "\",\n  \"env\": "
        << env_record.str() << ",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << "    " << records_[i] << (i + 1 < records_.size() ? "," : "")
          << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s (%zu records)\n", path_.c_str(), records_.size());
    return true;
  }

 private:
  std::string bench_name_;
  std::string path_;
  bool missing_path_ = false;
  std::vector<std::string> records_;
};

}  // namespace hts::bench
