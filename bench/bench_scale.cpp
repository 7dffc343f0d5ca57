// End-to-end perf baseline: the paper cells and the hyperscale curve.
//
// Runs the full simulation for FIFO/Fair at three scale points and reports
// process-CPU ms, peak RSS, heap allocations, the fingerprint and the
// deterministic work counters (RunResult::work) per cell:
//   paper  the Fig. 7/10 clusters, CCT 20 nodes x 600 jobs and EC2 100 x
//          2000, under vanilla, greedy-LRU and elephant-trap;
//   1k     1000 nodes x 10k jobs, vanilla and elephant-trap;
//   10k    10000 nodes x 100k jobs, vanilla and elephant-trap.
// Each cell executes in a forked child process: the kernel's RSS high-water
// mark never decreases, so per-cell peaks are only measurable with one
// process per measurement.
//
// With json=<path>, writes the results as JSON for the tracked baseline
// (BENCH_PR8.json), gated in CI by tools/check_bench_baseline.py:
// fingerprints and work counters exact, summed CPU, RSS and allocations per
// scale point within tolerances. Overrides:
//   mode=full|smoke   full: all three scale points (the committed baseline);
//                     smoke: the paper and 1k points (regular CI runs)
//   repeats=<n>       timed repetitions per cell, at least 3 for a paper
//                     cell; the minimum is reported
//   json=<path>       output path (default: none, print only)
//   max_scale=<n>     skip cells with more than n nodes
//   profile=1         print each cell's work counters (offer path,
//                     locality-index upkeep, events), then re-run the
//                     largest Fair/elephant-trap cell in-process with the
//                     PhaseProfiler attached and print the per-phase CPU
//                     attribution + peak RSS
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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

/// One cluster shape of a scale point, run under FIFO and Fair with each
/// of its policies.
struct ScalePoint {
  const char* name = "";     ///< "paper", "1k" or "10k"
  const char* profile = "";  ///< "cct" or "ec2"
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  int min_repeats = 1;  ///< floor on repeats=
  std::vector<cluster::PolicyKind> policies;
};

/// What the forked child reports back over its pipe.
struct ChildReport {
  double cpu_ms = 0.0;
  std::uint64_t fingerprint = 0;
  std::int64_t peak_rss_kb = 0;
  std::uint64_t allocations = 0;
  metrics::RunResult::Work work;
};

struct Row {
  const ScalePoint* point = nullptr;
  std::string scheduler;
  std::string policy;
  ChildReport m;  ///< the child's measurements
  bool ok = false;
};

double cpu_now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// The wl2 stream of every cell: many concurrent small jobs over a modest
/// file catalog, so map selection (not data generation) dominates. Up to
/// 100 nodes it keeps its 100-node shape; above, it is scaled so per-node
/// offered load and catalog-per-node stay constant as the cluster grows
/// (interarrival shrinks and the catalog widens with the node count).
workload::WorkloadOptions scale_workload_options(std::size_t nodes,
                                                 std::size_t jobs) {
  workload::WorkloadOptions wopts;
  wopts.num_jobs = jobs;
  wopts.seed = 7;
  const double factor = std::max(1.0, static_cast<double>(nodes) / 100.0);
  wopts.small_interarrival_s = 0.002 / factor;
  wopts.catalog.small_files = static_cast<std::size_t>(60 * factor);
  wopts.catalog.small_min_blocks = 2;
  wopts.catalog.small_max_blocks = 6;
  wopts.catalog.large_files = static_cast<std::size_t>(12 * factor);
  wopts.catalog.large_min_blocks = 16;
  wopts.catalog.large_max_blocks = 48;
  wopts.large_period = 20;
  return wopts;
}

cluster::ClusterOptions scale_cluster_options(const ScalePoint& point,
                                              cluster::SchedulerKind sched,
                                              cluster::PolicyKind pol) {
  const auto profile = std::strcmp(point.profile, "cct") == 0
                           ? net::cct_profile(point.nodes)
                           : net::ec2_profile(point.nodes);
  return cluster::paper_defaults(profile, sched, pol, 42);
}

/// One measured cell, in-process. Returns the min-over-repeats CPU, the
/// heap allocations of the first repeat, and the process peak RSS
/// (meaningful when this is the only cell the process ran — see
/// run_in_child).
ChildReport measure(const ScalePoint& point, cluster::SchedulerKind sched,
                    cluster::PolicyKind pol, int repeats) {
  const auto spec =
      workload::make_wl2_spec(scale_workload_options(point.nodes, point.jobs));
  ChildReport report;
  for (int r = 0; r < repeats; ++r) {
    const auto opts = scale_cluster_options(point, sched, pol);
    const std::uint64_t allocs0 = bench::allocation_count();
    const double t0 = cpu_now_ms();
    cluster::Cluster sim(opts);
    const auto result = sim.run_stream(spec);
    const double ms = cpu_now_ms() - t0;
    if (r == 0) report.allocations = bench::allocation_count() - allocs0;
    if (r == 0 || ms < report.cpu_ms) report.cpu_ms = ms;
    report.fingerprint = metrics::fingerprint(result);
    report.work = result.work;
  }
  report.peak_rss_kb = bench::read_memory_stats().peak_rss_kb;
  return report;
}

/// Fork-and-measure so every cell gets a fresh RSS high-water mark.
/// Returns false when the child died abnormally.
bool run_in_child(const ScalePoint& point, cluster::SchedulerKind sched,
                  cluster::PolicyKind pol, int repeats, ChildReport* out) {
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
    const ChildReport report = measure(point, sched, pol, repeats);
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
  bench::banner("End-to-end perf baseline (paper cells + scale curve)",
                "infrastructure; DARE Figs. 7 and 10 configs, ROADMAP "
                "hyperscale tier");

  const bool smoke = cfg.get_string("mode", "full") == "smoke";
  const int repeats = cfg.get_count<int>("repeats", 1);
  const auto max_scale = cfg.get_count<std::size_t>("max_scale", 1u << 20);
  const std::string json_path = cfg.get_string("json", "");

  using cluster::PolicyKind;
  const std::vector<PolicyKind> paper_policies = {
      PolicyKind::kVanilla, PolicyKind::kGreedyLru, PolicyKind::kElephantTrap};
  const std::vector<PolicyKind> scale_policies = {PolicyKind::kVanilla,
                                                  PolicyKind::kElephantTrap};
  std::vector<ScalePoint> points = {
      {"paper", "cct", 20, 600, 3, paper_policies},
      {"paper", "ec2", 100, 2000, 3, paper_policies},
      {"1k", "ec2", 1000, 10000, 1, scale_policies},
  };
  if (!smoke) {
    points.push_back({"10k", "ec2", 10000, 100000, 1, scale_policies});
  }

  std::vector<Row> rows;
  bool all_ok = true;
  std::printf("%-5s %-4s %-6s %-7s %-6s %-14s %12s %12s %14s %s\n", "point",
              "prof", "nodes", "jobs", "sched", "policy", "cpu_ms",
              "peak_rss_mb", "allocations", "fingerprint");
  for (const auto& point : points) {
    if (point.nodes > max_scale) {
      std::printf("%-5s %-4s %-6zu %-7zu (skipped: max_scale=%zu)\n",
                  point.name, point.profile, point.nodes, point.jobs,
                  max_scale);
      continue;
    }
    for (const auto sched :
         {cluster::SchedulerKind::kFifo, cluster::SchedulerKind::kFair}) {
      for (const auto pol : point.policies) {
        Row row;
        row.point = &point;
        row.scheduler = cluster::scheduler_name(sched);
        row.policy = cluster::policy_name(pol);
        row.ok = run_in_child(point, sched, pol,
                              std::max(point.min_repeats, repeats), &row.m);
        all_ok = all_ok && row.ok;
        std::printf(
            "%-5s %-4s %-6zu %-7zu %-6s %-14s %12.1f %12.1f %14llu %016llx%s\n",
            point.name, point.profile, point.nodes, point.jobs,
            row.scheduler.c_str(), row.policy.c_str(), row.m.cpu_ms,
            static_cast<double>(row.m.peak_rss_kb) / 1024.0,
            static_cast<unsigned long long>(row.m.allocations),
            static_cast<unsigned long long>(row.m.fingerprint),
            row.ok ? "" : "  CHILD FAILED");
        std::fflush(stdout);
        rows.push_back(row);
      }
    }
  }

  if (cfg.get_int("profile", 0) != 0 && !rows.empty()) {
    std::printf("\noffer-path work counters:\n%-5s %-4s %-6s %-6s %-14s %10s "
                "%12s %12s %12s %12s %12s\n",
                "point", "prof", "nodes", "sched", "policy", "sweeps",
                "node_visits", "select_map", "select_red", "job_probes",
                "memo_answers");
    for (const Row& r : rows) {
      std::printf(
          "%-5s %-4s %-6zu %-6s %-14s %10llu %12llu %12llu %12llu %12llu "
          "%12llu\n",
          r.point->name, r.point->profile, r.point->nodes,
          r.scheduler.c_str(), r.policy.c_str(),
          static_cast<unsigned long long>(r.m.work.sweeps),
          static_cast<unsigned long long>(r.m.work.node_visits),
          static_cast<unsigned long long>(r.m.work.select_map_calls),
          static_cast<unsigned long long>(r.m.work.select_reduce_calls),
          static_cast<unsigned long long>(r.m.work.job_probes),
          static_cast<unsigned long long>(r.m.work.memo_answers));
    }
    std::printf("\nlocality-index upkeep counters:\n%-5s %-4s %-6s %-6s %-14s "
                "%14s %14s %12s %14s\n",
                "point", "prof", "nodes", "sched", "policy", "cand_inserts",
                "cand_erases", "cand_allocs", "watcher_visits");
    for (const Row& r : rows) {
      std::printf("%-5s %-4s %-6zu %-6s %-14s %14llu %14llu %12llu %14llu\n",
                  r.point->name, r.point->profile, r.point->nodes,
                  r.scheduler.c_str(), r.policy.c_str(),
                  static_cast<unsigned long long>(r.m.work.candidate_inserts),
                  static_cast<unsigned long long>(r.m.work.candidate_erases),
                  static_cast<unsigned long long>(
                      r.m.work.candidate_allocations),
                  static_cast<unsigned long long>(r.m.work.watcher_visits));
    }
    std::printf("\nexecuted events by kind (nonzero kinds):\n");
    for (const Row& r : rows) {
      std::uint64_t total = 0;
      for (const std::uint64_t n : r.m.work.events) total += n;
      std::printf("%-5s %-4s %-6zu %-6s %-14s total=%llu", r.point->name,
                  r.point->profile, r.point->nodes, r.scheduler.c_str(),
                  r.policy.c_str(), static_cast<unsigned long long>(total));
      for (std::size_t k = 0; k < r.m.work.events.size(); ++k) {
        if (r.m.work.events[k] == 0) continue;
        std::printf(" %s=%llu",
                    cluster::Cluster::event_kind_name(
                        static_cast<cluster::Cluster::EventKind>(k)),
                    static_cast<unsigned long long>(r.m.work.events[k]));
      }
      std::printf("\n");
    }
    const ScalePoint& last = *rows.back().point;
    auto opts = scale_cluster_options(last, cluster::SchedulerKind::kFair,
                                      PolicyKind::kElephantTrap);
    obs::PhaseProfiler phase_profiler;
    opts.profiler = &phase_profiler;
    cluster::Cluster sim(opts);
    sim.run_stream(workload::make_wl2_spec(
        scale_workload_options(last.nodes, last.jobs)));
    std::printf("\nphase attribution (%s, %zu nodes, %zu jobs, "
                "Fair/elephant-trap):\n", last.profile, last.nodes, last.jobs);
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
        << "  \"description\": \"End-to-end perf baseline, one forked process "
           "per cell: process-CPU ms (min over repeats, 3 for paper cells), "
           "peak RSS, heap allocations of one run, fingerprint and work "
           "counters\",\n"
        << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(r.m.fingerprint));
      out << "    {\"point\": \"" << r.point->name << "\", \"profile\": \""
          << r.point->profile << "\", \"nodes\": " << r.point->nodes
          << ", \"jobs\": " << r.point->jobs << ", \"scheduler\": \""
          << r.scheduler << "\", \"policy\": \"" << r.policy
          << "\", \"cpu_ms\": " << r.m.cpu_ms << ", \"peak_rss_kb\": "
          << r.m.peak_rss_kb << ", \"allocations\": " << r.m.allocations
          << ", \"fingerprint\": \"" << fp << "\", \"work\": {\"sweeps\": "
          << r.m.work.sweeps << ", \"node_visits\": " << r.m.work.node_visits
          << ", \"select_map_calls\": " << r.m.work.select_map_calls
          << ", \"select_reduce_calls\": " << r.m.work.select_reduce_calls
          << ", \"job_probes\": " << r.m.work.job_probes
          << ", \"memo_answers\": " << r.m.work.memo_answers
          << ", \"candidate_inserts\": " << r.m.work.candidate_inserts
          << ", \"candidate_erases\": " << r.m.work.candidate_erases
          << ", \"candidate_allocations\": "
          << r.m.work.candidate_allocations
          << ", \"watcher_visits\": " << r.m.work.watcher_visits
          << ", \"events\": {";
      const char* sep = "";
      for (std::size_t k = 0; k < r.m.work.events.size(); ++k) {
        if (r.m.work.events[k] == 0) continue;
        out << sep << "\""
            << cluster::Cluster::event_kind_name(
                   static_cast<cluster::Cluster::EventKind>(k))
            << "\": " << r.m.work.events[k];
        sep = ", ";
      }
      out << "}}}" << (i + 1 < rows.size() ? "," : "") << "\n";
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
