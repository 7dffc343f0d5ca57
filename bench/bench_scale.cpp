// Hyperscale scale-curve benchmark (PR8 perf baseline).
//
// Runs the full simulation at three scale points — 100 nodes x 2k jobs
// (paper scale), 1k x 10k, and 10k x 100k — for FIFO/Fair x
// vanilla/elephant-trap, reporting process-CPU ms, peak RSS, and heap
// allocation count per configuration. Each configuration executes in a
// forked child process: the kernel's RSS high-water mark never decreases,
// so per-configuration peaks are only measurable with one process per
// measurement (the fork also isolates the allocation counter).
//
// Writes the results as JSON (default BENCH_PR8.json) for the tracked
// baseline, gated in CI by tools/check_bench_baseline.py (fingerprints
// hard, CPU and RSS with separate tolerances). Overrides:
//   mode=full|smoke   full: all three scale points (the committed curve);
//                     smoke: the 1k x 10k slice only (regular CI runs)
//   repeats=<n>       timed repetitions per config; the minimum is reported
//   json=<path>       output path ("" to skip writing)
//   max_scale=<n>     skip scale points with more than n nodes
//   profile=1         print each configuration's offer-path work counters
//                     (RunResult::work), then re-run the largest
//                     Fair/elephant-trap config in-process with the
//                     PhaseProfiler attached and print the per-phase CPU
//                     attribution + peak RSS
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
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

struct ScalePoint {
  std::size_t nodes = 0;
  std::size_t jobs = 0;
};

struct Row {
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  std::string scheduler;
  std::string policy;
  double cpu_ms = 0.0;
  std::int64_t peak_rss_kb = 0;
  std::uint64_t allocations = 0;
  std::uint64_t fingerprint = 0;
  metrics::RunResult::Work work;
  bool ok = false;
};

/// What the forked child reports back over its pipe.
struct ChildReport {
  double cpu_ms = 0.0;
  std::uint64_t fingerprint = 0;
  std::int64_t peak_rss_kb = 0;
  std::uint64_t allocations = 0;
  metrics::RunResult::Work work;
};

double cpu_now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// The hyperscale wl2 stream: the bench_sched_e2e heavy workload scaled so
/// per-node offered load and catalog-per-node stay constant as the cluster
/// grows (interarrival shrinks and the catalog widens with the node count).
workload::WorkloadOptions scale_workload_options(std::size_t nodes,
                                                 std::size_t jobs) {
  workload::WorkloadOptions wopts;
  wopts.num_jobs = jobs;
  wopts.seed = 7;
  const double factor = static_cast<double>(nodes) / 100.0;
  wopts.small_interarrival_s = 0.002 / factor;
  wopts.catalog.small_files =
      static_cast<std::size_t>(60 * factor < 60 ? 60 : 60 * factor);
  wopts.catalog.small_min_blocks = 2;
  wopts.catalog.small_max_blocks = 6;
  wopts.catalog.large_files =
      static_cast<std::size_t>(12 * factor < 12 ? 12 : 12 * factor);
  wopts.catalog.large_min_blocks = 16;
  wopts.catalog.large_max_blocks = 48;
  wopts.large_period = 20;
  return wopts;
}

cluster::ClusterOptions scale_cluster_options(std::size_t nodes,
                                              cluster::SchedulerKind sched,
                                              cluster::PolicyKind pol) {
  return cluster::paper_defaults(net::ec2_profile(nodes), sched, pol, 42);
}

/// One measured configuration, in-process. Returns the min-over-repeats CPU
/// plus the process-wide memory telemetry (meaningful when this is the only
/// configuration the process ran — see run_in_child).
ChildReport measure(std::size_t nodes, std::size_t jobs,
                    cluster::SchedulerKind sched, cluster::PolicyKind pol,
                    int repeats) {
  const auto wopts = scale_workload_options(nodes, jobs);
  const auto spec = workload::make_wl2_spec(wopts);
  ChildReport report;
  for (int r = 0; r < repeats; ++r) {
    const auto opts = scale_cluster_options(nodes, sched, pol);
    const double t0 = cpu_now_ms();
    cluster::Cluster sim(opts);
    const auto result = sim.run_stream(spec);
    const double ms = cpu_now_ms() - t0;
    if (r == 0 || ms < report.cpu_ms) report.cpu_ms = ms;
    report.fingerprint = metrics::fingerprint(result);
    report.work = result.work;
  }
  const auto mem = bench::read_memory_stats();
  report.peak_rss_kb = mem.peak_rss_kb;
  report.allocations = mem.allocations;
  return report;
}

/// Fork-and-measure so every configuration gets a fresh RSS high-water mark
/// and allocation counter. Returns false when the child died abnormally.
bool run_in_child(std::size_t nodes, std::size_t jobs,
                  cluster::SchedulerKind sched, cluster::PolicyKind pol,
                  int repeats, ChildReport* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: measure, ship the POD report, and _exit without running any
    // parent-owned teardown.
    close(fds[0]);
    const ChildReport report = measure(nodes, jobs, sched, pol, repeats);
    const char* bytes = reinterpret_cast<const char*>(&report);
    std::size_t off = 0;
    while (off < sizeof report) {
      const ssize_t n = write(fds[1], bytes + off, sizeof report - off);
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  char* bytes = reinterpret_cast<char*>(out);
  std::size_t off = 0;
  while (off < sizeof *out) {
    const ssize_t n = read(fds[0], bytes + off, sizeof *out - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return off == sizeof *out && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

int run(const Config& cfg) {
  bench::banner("Hyperscale scale curve (PR8 perf baseline)",
                "infrastructure (no paper figure); ROADMAP hyperscale tier");

  const bool smoke = cfg.get_string("mode", "full") == "smoke";
  const int repeats = cfg.get_count<int>("repeats", 1);
  const auto max_scale = cfg.get_count<std::size_t>("max_scale", 1u << 20);
  const std::string json_path = cfg.get_string("json", "BENCH_PR8.json");

  std::vector<ScalePoint> points;
  if (smoke) {
    points = {{1000, 10000}};
  } else {
    points = {{100, 2000}, {1000, 10000}, {10000, 100000}};
  }
  const std::vector<cluster::SchedulerKind> schedulers = {
      cluster::SchedulerKind::kFifo, cluster::SchedulerKind::kFair};
  const std::vector<cluster::PolicyKind> policies = {
      cluster::PolicyKind::kVanilla, cluster::PolicyKind::kElephantTrap};

  std::vector<Row> rows;
  bool all_ok = true;
  std::printf("%-6s %-7s %-6s %-14s %12s %12s %14s %s\n", "nodes", "jobs",
              "sched", "policy", "cpu_ms", "peak_rss_mb", "allocations",
              "fingerprint");
  for (const auto& point : points) {
    if (point.nodes > max_scale) {
      std::printf("%-6zu %-7zu (skipped: max_scale=%zu)\n", point.nodes,
                  point.jobs, max_scale);
      continue;
    }
    for (const auto sched : schedulers) {
      for (const auto pol : policies) {
        Row row;
        row.nodes = point.nodes;
        row.jobs = point.jobs;
        row.scheduler = cluster::scheduler_name(sched);
        row.policy = cluster::policy_name(pol);
        ChildReport report;
        row.ok = run_in_child(point.nodes, point.jobs, sched, pol, repeats,
                              &report);
        all_ok = all_ok && row.ok;
        row.cpu_ms = report.cpu_ms;
        row.peak_rss_kb = report.peak_rss_kb;
        row.allocations = report.allocations;
        row.fingerprint = report.fingerprint;
        row.work = report.work;
        std::printf("%-6zu %-7zu %-6s %-14s %12.1f %12.1f %14llu %016llx%s\n",
                    row.nodes, row.jobs, row.scheduler.c_str(),
                    row.policy.c_str(), row.cpu_ms,
                    static_cast<double>(row.peak_rss_kb) / 1024.0,
                    static_cast<unsigned long long>(row.allocations),
                    static_cast<unsigned long long>(row.fingerprint),
                    row.ok ? "" : "  CHILD FAILED");
        std::fflush(stdout);
        rows.push_back(row);
      }
    }
  }

  if (cfg.get_int("profile", 0) != 0 && !rows.empty()) {
    std::printf("\noffer-path work counters:\n%-6s %-7s %-6s %-14s %10s %12s "
                "%12s %12s %12s\n",
                "nodes", "jobs", "sched", "policy", "sweeps", "node_visits",
                "select_map", "job_probes", "memo_answers");
    for (const Row& r : rows) {
      std::printf("%-6zu %-7zu %-6s %-14s %10llu %12llu %12llu %12llu %12llu\n",
                  r.nodes, r.jobs, r.scheduler.c_str(), r.policy.c_str(),
                  static_cast<unsigned long long>(r.work.sweeps),
                  static_cast<unsigned long long>(r.work.node_visits),
                  static_cast<unsigned long long>(r.work.select_map_calls),
                  static_cast<unsigned long long>(r.work.job_probes),
                  static_cast<unsigned long long>(r.work.memo_answers));
    }
    std::printf("\nexecuted events by kind (nonzero kinds):\n");
    for (const Row& r : rows) {
      std::uint64_t total = 0;
      for (const std::uint64_t n : r.work.events) total += n;
      std::printf("%-6zu %-7zu %-6s %-14s total=%llu", r.nodes, r.jobs,
                  r.scheduler.c_str(), r.policy.c_str(),
                  static_cast<unsigned long long>(total));
      for (std::size_t k = 0; k < r.work.events.size(); ++k) {
        if (r.work.events[k] == 0) continue;
        std::printf(" %s=%llu",
                    cluster::Cluster::event_kind_name(
                        static_cast<cluster::Cluster::EventKind>(k)),
                    static_cast<unsigned long long>(r.work.events[k]));
      }
      std::printf("\n");
    }
    const Row& last = rows.back();
    auto opts = scale_cluster_options(last.nodes,
                                      cluster::SchedulerKind::kFair,
                                      cluster::PolicyKind::kElephantTrap);
    obs::PhaseProfiler phase_profiler;
    opts.profiler = &phase_profiler;
    cluster::Cluster sim(opts);
    sim.run_stream(
        workload::make_wl2_spec(scale_workload_options(last.nodes,
                                                       last.jobs)));
    std::printf("\nphase attribution (%zu nodes, %zu jobs, "
                "Fair/elephant-trap):\n", last.nodes, last.jobs);
    phase_profiler.write_report(std::cout);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n"
        << "  \"benchmark\": \"bench_scale\",\n"
        << "  \"description\": \"Hyperscale scale curve (process-CPU ms + "
           "peak RSS per forked config): streaming workload admission, arena "
           "job storage, SoA hot structures (PR8)\",\n"
        << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      out << "    {\"profile\": \"ec2\", \"nodes\": " << r.nodes
          << ", \"jobs\": " << r.jobs << ", \"scheduler\": \"" << r.scheduler
          << "\", \"policy\": \"" << r.policy << "\", \"cpu_ms\": "
          << r.cpu_ms << ", \"peak_rss_kb\": " << r.peak_rss_kb
          << ", \"allocations\": " << r.allocations << ", \"fingerprint\": \""
          << fp << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("[json written: %s]\n", json_path.c_str());
  }

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: at least one configuration child failed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"json", "max_scale", "mode", "profile", "repeats"}},
      dare::run);
}
