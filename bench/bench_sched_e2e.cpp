// End-to-end benchmark for the scheduler hot path.
//
// Runs the full simulation — FIFO/Fair × Vanilla/GreedyLRU/ElephantTrap on
// the CCT and EC2 profiles — once per configuration (min over `repeats`)
// and records process-CPU time and metrics::fingerprint per row, in the
// same row schema as bench_scale. tools/check_bench_baseline.py compares a
// fresh file against the committed BENCH_PR3.json: fingerprints must match
// exactly, summed CPU within a budget.
//
// Times are process-CPU time (CLOCK_PROCESS_CPUTIME_ID), min over
// `repeats`: the simulation is single-threaded and allocation-light, so CPU
// time equals wall time on an idle machine while staying meaningful on a
// loaded or time-shared one, where wall clock is dominated by steal time.
//
// Writes the results as JSON (default BENCH_PR3.json) for the tracked perf
// baseline. Overrides:
//   mode=full|smoke   full: paper-scale (EC2 100 nodes / 2000 jobs);
//                     smoke: CI-sized (finishes in seconds)
//   repeats=<n>       timed repetitions per configuration; the minimum is
//                     reported
//   json=<path>       output path ("" to skip writing)
//   jobs_ec2= jobs_cct= nodes_ec2= nodes_cct=   scale overrides
//   profile=1         after the table, re-run the largest configuration
//                     with the PhaseProfiler attached and print the per-phase
//                     CPU attribution (separate pass: timings stay untouched)
#include <ctime>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"
#include "obs/phase_profiler.h"
#include "workload/workload.h"

namespace dare {
namespace {

struct Row {
  std::string profile;
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  std::string scheduler;
  std::string policy;
  double cpu_ms = 0.0;
  std::uint64_t fingerprint = 0;
};

double cpu_now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double cpu_ms(const cluster::ClusterOptions& opts,
              const workload::Workload& wl, int repeats,
              std::uint64_t* fingerprint) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = cpu_now_ms();
    const auto result = cluster::run_once(opts, wl);
    const double ms = cpu_now_ms() - t0;
    if (r == 0 || ms < best) best = ms;
    *fingerprint = metrics::fingerprint(result);
  }
  return best;
}

/// The scheduling-intensive workload: many concurrent small jobs over a
/// modest file catalog, so map-selection pressure (not data generation)
/// dominates. Matches the profiling configuration used to pick the PR's
/// optimization targets.
workload::Workload heavy_workload(std::size_t jobs) {
  workload::WorkloadOptions wopts;
  wopts.num_jobs = jobs;
  wopts.seed = 7;
  wopts.small_interarrival_s = 0.002;
  wopts.catalog.small_files = 60;
  wopts.catalog.small_min_blocks = 2;
  wopts.catalog.small_max_blocks = 6;
  wopts.catalog.large_files = 12;
  wopts.catalog.large_min_blocks = 16;
  wopts.catalog.large_max_blocks = 48;
  wopts.large_period = 20;
  return workload::make_wl2(wopts);
}

int run(const Config& cfg) {
  bench::banner("Scheduler hot-path end-to-end (BENCH_PR3.json baseline)",
                "infrastructure (no paper figure); DARE Secs. 5-6 configs");

  const bool smoke = cfg.get_string("mode", "full") == "smoke";
  const int repeats = cfg.get_count<int>("repeats", smoke ? 1 : 3);
  const auto nodes_cct =
      cfg.get_count<std::size_t>("nodes_cct", smoke ? 10 : 20);
  const auto nodes_ec2 =
      cfg.get_count<std::size_t>("nodes_ec2", smoke ? 20 : 100);
  const auto jobs_cct =
      cfg.get_count<std::size_t>("jobs_cct", smoke ? 60 : 600);
  const auto jobs_ec2 =
      cfg.get_count<std::size_t>("jobs_ec2", smoke ? 100 : 2000);
  const std::string json_path = cfg.get_string("json", "BENCH_PR3.json");

  struct ProfileCase {
    std::string name;
    std::size_t nodes;
    std::size_t jobs;
  };
  const std::vector<ProfileCase> profiles = {
      {"cct", nodes_cct, jobs_cct},
      {"ec2", nodes_ec2, jobs_ec2},
  };
  const std::vector<cluster::SchedulerKind> schedulers = {
      cluster::SchedulerKind::kFifo, cluster::SchedulerKind::kFair};
  const std::vector<cluster::PolicyKind> policies = {
      cluster::PolicyKind::kVanilla, cluster::PolicyKind::kGreedyLru,
      cluster::PolicyKind::kElephantTrap};

  std::vector<Row> rows;
  std::printf("%-4s %-5s %-5s %-6s %-14s %10s %s\n", "prof", "nodes", "jobs",
              "sched", "policy", "cpu_ms", "fingerprint");
  for (const auto& prof : profiles) {
    const auto wl = heavy_workload(prof.jobs);
    const auto profile = prof.name == "cct" ? net::cct_profile(prof.nodes)
                                            : net::ec2_profile(prof.nodes);
    for (const auto sched : schedulers) {
      for (const auto pol : policies) {
        const auto opts = cluster::paper_defaults(profile, sched, pol, 42);
        Row row;
        row.profile = prof.name;
        row.nodes = prof.nodes;
        row.jobs = prof.jobs;
        row.scheduler = cluster::scheduler_name(sched);
        row.policy = cluster::policy_name(pol);
        row.cpu_ms = cpu_ms(opts, wl, repeats, &row.fingerprint);

        std::printf("%-4s %-5zu %-5zu %-6s %-14s %10.1f %016llx\n",
                    row.profile.c_str(), row.nodes, row.jobs,
                    row.scheduler.c_str(), row.policy.c_str(), row.cpu_ms,
                    static_cast<unsigned long long>(row.fingerprint));
        std::fflush(stdout);
        rows.push_back(row);
      }
    }
  }

  if (cfg.get_int("profile", 0) != 0) {
    // Phase attribution for the heaviest configuration. Runs after (and
    // apart from) the timed passes so the scoped clock reads cannot
    // contaminate cpu_ms.
    const auto& prof = profiles.back();
    auto opts = cluster::paper_defaults(
        prof.name == "cct" ? net::cct_profile(prof.nodes)
                           : net::ec2_profile(prof.nodes),
        cluster::SchedulerKind::kFair, cluster::PolicyKind::kElephantTrap,
        42);
    obs::PhaseProfiler phase_profiler;
    opts.profiler = &phase_profiler;
    cluster::run_once(opts, heavy_workload(prof.jobs));
    std::printf("\nphase attribution (%s, %zu nodes, %zu jobs, "
                "Fair/elephant-trap):\n",
                prof.name.c_str(), prof.nodes, prof.jobs);
    phase_profiler.write_report(std::cout);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_sched_e2e\",\n"
        << "  \"description\": \"End-to-end scheduler hot path "
           "(process-CPU ms, min over repeats) on the paper's CCT and EC2 "
           "configurations\",\n"
        << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      out << "    {\"profile\": \"" << r.profile << "\", \"nodes\": "
          << r.nodes << ", \"jobs\": " << r.jobs << ", \"scheduler\": \""
          << r.scheduler << "\", \"policy\": \"" << r.policy
          << "\", \"cpu_ms\": " << r.cpu_ms << ", \"fingerprint\": \"" << fp
          << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("[json written: %s]\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv,
                          {{"jobs_cct", "jobs_ec2", "json", "mode",
                            "nodes_cct", "nodes_ec2", "profile", "repeats"}},
                          dare::run);
}
