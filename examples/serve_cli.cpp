// serve_cli: drive the in-process sampling service with a batch of jobs.
//
//   ./serve_cli [--workers N] [--admission] [--amplify] [--project]
//               [--fault SPEC] [--metrics [FILE]] [--trace FILE]
//               [jobspec-file]
//
// --admission turns on deadline-aware admission control (infeasible requests
// come back `rejected` at submit, before any compile); --amplify turns on
// word-parallel flip amplification for every job (the Amp column then counts
// the uniques the amplifier contributed); --project turns on projected
// dedup + the diversity restart objective for every job — jobs whose DIMACS
// carries a `c ind` sampling set then dedup on the projection and the Div
// column counts diversity-restarted rows (jobs without a set are
// unaffected); --fault arms the deterministic fault injector with SPEC
// (same grammar as HTS_FAULT_SPEC, e.g.
// 'compile:every=3;slice:every=5:kind=transient') so the failure paths in
// the table below can be exercised from the command line.
//
// Observability: --metrics prints, after the fleet drains, the server's
// metrics in the Prometheus text exposition (to FILE when the next argument
// names one, else to stdout); it arms nothing, since the server builds its
// metrics from the counters it keeps anyway.  --trace FILE enables per-job
// span tracing before the Server is constructed and writes a Chrome
// trace-event JSON loadable in Perfetto (one track per worker, one async
// track per job covering submit -> finalize).  Neither perturbs the
// sampled streams (see README "Observability").
//
// Each non-comment line of the jobspec file is one request:
//
//   <instance> <target> <deadline_ms> [seed] [client]
//
// where <instance> is either a path to a DIMACS .cnf file or '@name' for a
// built-in benchgen instance (e.g. @or-50-10-7-UC-10, @75-10-1-q,
// @s15850a_3_2, @Prod-8), <target> is the unique-solution goal (0 = run to
// the deadline), and <deadline_ms> is the per-job budget (0 = none).
// Without a file, a built-in demo batch of mixed-family clients runs.
//
// All jobs are submitted up front — the point of the service layer — and
// stream their unique solutions concurrently; the CLI prints a live
// completion log and a final per-job accounting table.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/families.hpp"
#include "cnf/dimacs.hpp"
#include "service/server.hpp"
#include "telemetry/trace.hpp"
#include "util/table.hpp"

namespace {

using namespace hts;

struct JobSpec {
  std::string instance;
  std::size_t target = 1000;
  double deadline_ms = 0.0;
  std::uint64_t seed = 0x5eed;
  std::uint64_t client = 0;
};

const char* kDemoSpec =
    "# instance            target  deadline_ms  seed  client\n"
    "@or-50-10-7-UC-10     500     0            1     0\n"
    "@or-50-10-7-UC-10     500     0            2     0\n"
    "@75-10-1-q            800     0            3     1\n"
    "@75-10-1-q            800     0            4     1\n"
    "@s15850a_3_2          400     10000        5     2\n"
    "@s15850a_3_2          400     10000        6     2\n"
    "@75-10-1-q            0       1500         7     3\n";

std::vector<JobSpec> parse_specs(std::istream& in) {
  std::vector<JobSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    JobSpec spec;
    if (!(fields >> spec.instance >> spec.target >> spec.deadline_ms)) {
      std::fprintf(stderr, "skipping malformed jobspec line: %s\n", line.c_str());
      continue;
    }
    fields >> spec.seed >> spec.client;  // optional; defaults stand
    specs.push_back(std::move(spec));
  }
  return specs;
}

cnf::Formula load_formula(const std::string& instance) {
  if (!instance.empty() && instance[0] == '@') {
    return benchgen::make_instance(instance.substr(1), {}).formula;
  }
  return cnf::parse_dimacs_file(instance);
}

/// One cell summarizing a job's error, empty when it finished clean:
/// "category@site: message" is exactly what an operator greps logs for.
std::string error_cell(const service::ErrorInfo& error) {
  if (error.ok()) return "-";
  std::string cell = service::error_category_name(error.category);
  if (!error.site.empty()) cell += "@" + error.site;
  if (!error.message.empty()) cell += ": " + error.message;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_workers = 0;  // hardware
  std::string spec_path;
  std::string fault_spec;
  std::string metrics_path;
  std::string trace_path;
  bool admission = false;
  bool amplify = false;
  bool project = false;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      n_workers = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--fault" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--admission") {
      admission = true;
    } else if (arg == "--amplify") {
      amplify = true;
    } else if (arg == "--project") {
      project = true;
    } else if (arg == "--metrics") {
      metrics = true;
      // Optional output file: consume the next argument unless it is a flag
      // or the (sole) jobspec positional at the end.
      if (i + 1 < argc && argv[i + 1][0] != '-' && i + 2 < argc) {
        metrics_path = argv[++i];
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      spec_path = arg;
    }
  }
  // Enable tracing before the Server (and its workers) exist so every span
  // site sees the flag from the first slice on.
  if (!trace_path.empty()) telemetry::set_trace_enabled(true);

  std::vector<JobSpec> specs;
  if (spec_path.empty()) {
    std::printf("no jobspec file given - running the built-in demo batch\n");
    std::istringstream demo(kDemoSpec);
    specs = parse_specs(demo);
  } else {
    std::ifstream file(spec_path);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
      return 1;
    }
    specs = parse_specs(file);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no jobs to run\n");
    return 1;
  }

  service::ServerConfig server_config{.n_workers = n_workers};
  server_config.fault_spec = fault_spec;
  server_config.admission.enabled = admission;
  service::Server server(std::move(server_config));
  std::printf("service up: %zu workers, %zu jobs%s%s%s%s\n\n",
              server.n_workers(), specs.size(),
              admission ? ", admission control on" : "",
              amplify ? ", flip amplification on" : "",
              project ? ", projected sampling on" : "",
              server.fault_injector().armed() ? ", fault injector armed" : "");

  struct Submitted {
    JobSpec spec;
    service::JobHandle handle;
  };
  std::vector<Submitted> jobs;
  jobs.reserve(specs.size());
  for (JobSpec& spec : specs) {
    service::SamplingRequest request;
    try {
      request.formula = load_formula(spec.instance);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "skipping %s: %s\n", spec.instance.c_str(),
                   error.what());
      continue;
    }
    request.seed = spec.seed;
    request.client_id = spec.client;
    request.target_uniques = spec.target;
    request.deadline_ms = spec.deadline_ms;
    request.config.batch = 2048;
    request.config.amplify.enabled = amplify;
    if (project) {
      // Dedup on the formula's own `c ind` set (no-op without one) and
      // re-seed rows whose projection is already banked at each restart.
      request.config.projected_dedup = true;
      request.config.diversity_restart = true;
    }
    jobs.push_back(Submitted{spec, server.submit(std::move(request))});
  }

  // Wait in submission order; print as each job lands.  (Completions happen
  // in scheduler order, not submission order — the table below is the
  // consolidated view.)
  util::Table table({"Job", "Client", "Instance", "Status", "Unique", "Amp",
                     "Div", "Wait(ms)", "Wall(ms)", "Cache", "Error"});
  for (const Submitted& job : jobs) {
    const service::JobStatus status = job.handle.wait();
    const service::JobStats stats = job.handle.stats();
    std::printf("job %llu (%s) -> %s: %zu uniques in %.1f ms\n",
                static_cast<unsigned long long>(job.handle.id()),
                job.spec.instance.c_str(), service::job_status_name(status),
                stats.n_unique, stats.wall_ms);
    table.add_row({std::to_string(job.handle.id()),
                   std::to_string(job.spec.client), job.spec.instance,
                   service::job_status_name(status),
                   std::to_string(stats.n_unique),
                   std::to_string(stats.amplified_uniques),
                   std::to_string(stats.diversity_restarted_rows),
                   util::format_fixed(stats.queue_wait_ms, 1),
                   util::format_fixed(stats.wall_ms, 1),
                   stats.plan_cache_hit ? "hit" : "miss",
                   error_cell(stats.error)});
  }

  const service::ServerStats stats = server.stats();
  const service::PlanCache::Stats cache = server.plan_cache_stats();
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("fleet: %llu jobs, %llu completed, %llu expired, %llu failed, "
              "%llu rejected, %llu retried; plan cache %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.deadline_expired),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.retried),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));

  if (metrics) {
    // Pull the same snapshot an embedding process would poll live; the
    // Prometheus rendering is what a /metrics endpoint will serve.
    const service::StatsSnapshot snapshot = server.stats_snapshot();
    if (metrics_path.empty()) {
      std::printf("\n%s", snapshot.metrics_prometheus.c_str());
    } else {
      std::ofstream out(metrics_path);
      out << snapshot.metrics_prometheus;
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    // Every job finalized above, so every async track is closed; quiesce the
    // workers before draining the per-thread rings.
    server.shutdown();
    telemetry::TraceSink::global().write_chrome_json(trace_path);
    std::printf("trace written to %s (load in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return 0;
}
