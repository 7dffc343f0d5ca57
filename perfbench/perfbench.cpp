// Cell runner for the repository benchmark (perfbench/run.py drives it).
//
// One invocation runs one simulation cell of one workload, once, and prints
// one JSON line of raw measurements; run.py starts a fresh process per cell
// so every cell gets its own peak-RSS high-water mark and allocation count,
// and aggregates, checks and reports. The simulator is driven only through
// its public API: paper_defaults, Cluster::Cluster, Cluster::run_stream,
// metrics::fingerprint and Cluster::validate. The traced mode attaches the
// existing obs::PhaseProfiler and obs::TraceCollector through
// ClusterOptions and times the public calls from outside.
//
// A workload is a list of cells, each run under `panel` simulation seeds
// derived from the benchmark seed. The seed is ClusterOptions::seed: it
// moves block placement, network and task-time draws and every fault
// process, while the job stream stays the recorded wl2 stream (seed 7), so
// the work a run measures stays comparable from seed to seed.
//
// Usage:
//   dare_perfbench list <workload> <seed> [toy]
//       one line per run: "<cell index> <simulation seed> <name>"
//   dare_perfbench run <workload> <cell index> <simulation seed>
//       plain|traced [toy]
#include <time.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"
#include "obs/phase_profiler.h"
#include "obs/trace_collector.h"
#include "obs/trace_event.h"
#include "workload/workload.h"

namespace dare::bench {
std::uint64_t allocation_count();  // bench/alloc_probe.cpp
}

namespace {

using dare::cluster::PolicyKind;
using dare::cluster::SchedulerKind;

struct Cell {
  const char* profile;  ///< "cct" or "ec2"
  std::size_t nodes;
  std::size_t jobs;
  std::size_t toy_nodes;
  std::size_t toy_jobs;
  /// Scale the wl2 stream with the cluster (bench_scale's stream: per-node
  /// load and catalog per node held constant) or keep it at its 100-node
  /// shape (bench_sched_e2e's stream, the paper cells).
  bool scaled;
  SchedulerKind scheduler;
  PolicyKind policy;
  /// Churn, corruption, stragglers with detection, network faults, cloning.
  bool faults;
};

struct Workload {
  const char* name;
  std::vector<Cell> cells;
  /// Simulation seeds per cell: more simulated work per run, so the
  /// seed-to-seed spread of every end-to-end metric stays small.
  std::size_t panel;
  /// The layer self-check: why this workload exists, asserted on every
  /// result, because a layer can go idle without any error. Returns an
  /// empty string when the result exercises what the workload is for.
  std::string (*check)(const dare::metrics::RunResult& r,
                       std::size_t workers);
};

constexpr auto kFifo = SchedulerKind::kFifo;
constexpr auto kFair = SchedulerKind::kFair;
constexpr auto kVanilla = PolicyKind::kVanilla;
constexpr auto kLru = PolicyKind::kGreedyLru;
constexpr auto kTrap = PolicyKind::kElephantTrap;

std::vector<Cell> paper_cells() {
  std::vector<Cell> cells;
  for (const char* profile : {"cct", "ec2"}) {
    const bool cct = profile[0] == 'c';
    for (const auto sched : {kFifo, kFair}) {
      for (const auto pol : {kVanilla, kLru, kTrap}) {
        cells.push_back({profile, cct ? 20u : 100u, cct ? 600u : 2000u,
                         cct ? 10u : 20u, cct ? 60u : 100u, false, sched, pol,
                         false});
      }
    }
  }
  return cells;
}

std::string check_offer_sweep(const dare::metrics::RunResult& r,
                              std::size_t) {
  return r.dynamic_replicas_created == 0 && r.node_failures == 0
             ? ""
             : "expected zero adoptions and zero churn";
}

std::string check_replica_churn(const dare::metrics::RunResult& r,
                                std::size_t) {
  return r.dynamic_replicas_created > 0 ? "" : "policy adopted no replicas";
}

std::string check_fault_storm(const dare::metrics::RunResult& r,
                              std::size_t) {
  if (r.node_failures == 0) return "no node failures";
  if (r.partition_episodes == 0) return "no partitions";
  if (r.replicas_quarantined == 0) return "no quarantines";
  if (r.repairs_landed == 0) return "no repairs landed";
  if (r.clones_launched == 0) return "no clones launched";
  return "";
}

/// <= 256 workers keeps the direct-indexed CandidateMap layout.
std::string check_paper_cells(const dare::metrics::RunResult&,
                              std::size_t workers) {
  return workers <= 256 ? "" : "cluster larger than 256 workers";
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"offer-sweep",
       {{"ec2", 1000, 10000, 100, 400, true, kFair, kVanilla, false}},
       3,
       check_offer_sweep},
      {"replica-churn",
       {{"ec2", 1000, 10000, 100, 400, true, kFifo, kTrap, false},
        {"ec2", 1000, 10000, 100, 400, true, kFifo, kLru, false}},
       2,
       check_replica_churn},
      {"fault-storm",
       {{"ec2", 300, 3000, 60, 600, true, kFair, kLru, true}},
       8,
       check_fault_storm},
      {"paper-cells", paper_cells(), 2, check_paper_cells},
  };
  return all;
}

/// Panel member `i` of benchmark seed `seed`; member 0 is the seed itself,
/// so the default seed 42 reproduces the committed fingerprints.
std::uint64_t panel_seed(std::uint64_t seed, std::size_t i) {
  return seed + 7919u * i;
}

std::string cell_name(const Cell& c, bool toy) {
  return std::string(c.profile) + "-" +
         std::to_string(toy ? c.toy_nodes : c.nodes) + "x" +
         std::to_string(toy ? c.toy_jobs : c.jobs) + "-" +
         dare::cluster::scheduler_name(c.scheduler) + "-" +
         dare::cluster::policy_name(c.policy);
}

/// The heavy wl2 stream of bench_sched_e2e (factor 1) and bench_scale
/// (factor nodes/100): many small jobs over a modest catalog with a large
/// full-scan job every 20 arrivals.
dare::workload::WorkloadOptions workload_options(const Cell& c,
                                                 std::size_t nodes,
                                                 std::size_t jobs) {
  dare::workload::WorkloadOptions w;
  w.num_jobs = jobs;
  w.seed = 7;
  const double factor =
      c.scaled ? static_cast<double>(nodes) / 100.0 : 1.0;
  w.small_interarrival_s = 0.002 / factor;
  w.catalog.small_files =
      static_cast<std::size_t>(60 * factor < 60 ? 60 : 60 * factor);
  w.catalog.small_min_blocks = 2;
  w.catalog.small_max_blocks = 6;
  w.catalog.large_files =
      static_cast<std::size_t>(12 * factor < 12 ? 12 : 12 * factor);
  w.catalog.large_min_blocks = 16;
  w.catalog.large_max_blocks = 48;
  w.large_period = 20;
  return w;
}

dare::cluster::ClusterOptions cluster_options(const Cell& c,
                                              std::size_t nodes,
                                              std::uint64_t seed) {
  const auto profile = c.profile[0] == 'c' ? dare::net::cct_profile(nodes)
                                           : dare::net::ec2_profile(nodes);
  auto o = dare::cluster::paper_defaults(profile, c.scheduler, c.policy, seed);
  if (c.faults) {
    o.faults.enabled = true;
    o.faults.mtbf_s = 1200.0;
    o.faults.mttr_s = 60.0;
    o.faults.permanent_fraction = 0.15;
    // Light corruption. Heavier rot (0.5/GB, sector loss every 60 s) fails
    // validate() on a few percent of seeds with "location references a
    // quarantined replica"; that is a simulator bug to fix on its own, and
    // a benchmark workload must not fail.
    o.corruption.enabled = true;
    o.corruption.bitrot_per_gb = 0.05;
    o.corruption.sector_mtbf_s = 300.0;
    o.stragglers.enabled = true;
    o.stragglers.tail_prob = 0.1;
    o.stragglers.tail_cap = 8.0;
    o.enable_straggler_detection = true;
    o.netfault.enabled = true;
    o.netfault.partition_mtbf_s = 900.0;
    o.netfault.partition_duration_s = 30.0;
    o.netfault.link_degrade_mtbf_s = 400.0;
    o.netfault.link_degrade_duration_s = 40.0;
    o.enable_task_cloning = true;
    o.clone_budget_fraction = 0.1;
  }
  return o;
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Minimal JSON object writer: numbers print with every significant digit.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += (ch == '\n' ? ' ' : ch);
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const char* key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ");
    body_ += "\"" + std::string(key) + "\": " + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Fields shared by both modes: the result's identity and the counters the
/// workloads' layer self-checks and the end-to-end metrics read.
void describe_result(Json& out, const dare::metrics::RunResult& r) {
  std::uint64_t completed = 0;
  std::uint64_t maps = 0;
  std::uint64_t local = 0;
  std::uint64_t gmtt_jobs = 0;
  double log_sum = 0.0;
  for (const auto& job : r.jobs) {
    if (job.failed) continue;
    ++completed;
    maps += job.maps;
    local += job.local_maps;
    const double t = job.turnaround_s();
    if (t > 0.0) {
      log_sum += std::log(t);
      ++gmtt_jobs;
    }
  }
  out.str("fingerprint", hex64(dare::metrics::fingerprint(r)))
      .num("jobs", static_cast<std::uint64_t>(r.jobs.size()))
      .num("completed_jobs", completed)
      .num("maps", maps)
      .num("local_maps", local)
      .num("gmtt_log_sum", log_sum)
      .num("gmtt_jobs", gmtt_jobs)
      .num("adopted", r.dynamic_replicas_created)
      .num("node_failures", r.node_failures)
      .num("partitions", r.partition_episodes)
      .num("quarantines", r.replicas_quarantined)
      .num("repairs_enqueued", r.repairs_enqueued)
      .num("repairs_landed", r.repairs_landed)
      .num("repair_retries", r.repair_retries)
      .num("clones_launched", r.clones_launched)
      .num("clone_wins", r.clone_wins)
      .num("clone_wasted_s", r.clone_wasted_work_s);
}

void describe_trace(Json& out, const dare::obs::PhaseProfiler& prof,
                    const dare::obs::TraceCollector& tracer) {
  using dare::obs::EventKind;
  using dare::obs::Phase;
  for (std::size_t p = 0; p < dare::obs::PhaseProfiler::kPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    const std::string name = dare::obs::phase_name(phase);
    out.raw(("phase_ns." + name).c_str(),
            std::to_string(prof.total_ns(phase)));
    out.num(("phase_calls." + name).c_str(), prof.calls(phase));
  }
  constexpr auto kKinds = static_cast<std::size_t>(EventKind::kKindCount);
  std::array<std::uint64_t, kKinds> by_kind{};
  std::array<std::uint64_t, 8> skipped{};
  std::uint64_t remote_launches = 0;
  for (const auto& e : tracer.events()) {
    ++by_kind[static_cast<std::size_t>(e.kind)];
    if (e.kind == EventKind::kMapLaunched && e.detail != 0) ++remote_launches;
    if (e.kind == EventKind::kReplicaSkipped &&
        static_cast<std::size_t>(e.detail) < skipped.size()) {
      ++skipped[static_cast<std::size_t>(e.detail)];
    }
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string name =
        dare::obs::kind_name(static_cast<EventKind>(k));
    out.num(("events." + name).c_str(), by_kind[k]);
  }
  out.num("map_launched_remote", remote_launches);
  for (std::size_t s = 0;
       s <= static_cast<std::size_t>(dare::obs::SkipReason::kQuarantined);
       ++s) {
    const std::string name = dare::obs::skip_reason_name(
        static_cast<dare::obs::SkipReason>(s));
    out.num(("skipped." + name).c_str(), skipped[s]);
  }
  out.num("trace_events", static_cast<std::uint64_t>(tracer.size()));
  out.num("trace_bytes", static_cast<std::uint64_t>(
                             tracer.size() * sizeof(dare::obs::TraceEvent)));
}

int run_cell(const Workload& w, const Cell& c, std::uint64_t seed,
             bool traced, bool toy) {
  const std::size_t nodes = toy ? c.toy_nodes : c.nodes;
  const std::size_t jobs = toy ? c.toy_jobs : c.jobs;
  const auto wopts = workload_options(c, nodes, jobs);
  Json out;
  out.str("cell", cell_name(c, toy));
  bool ok = true;
  try {
    if (traced) {
      // Workload generation on its own: the spec plus a full drain.
      const double g0 = cpu_s();
      const auto gen_spec = dare::workload::make_wl2_spec(wopts);
      std::uint64_t drained = 0;
      for (auto stream = gen_spec.open(); stream->next();) ++drained;
      out.num("gen_cpu_s", cpu_s() - g0).num("gen_jobs", drained);
    }
    const std::uint64_t a0 = dare::bench::allocation_count();
    const double t0 = cpu_s();
    const auto spec = dare::workload::make_wl2_spec(wopts);
    auto opts = cluster_options(c, nodes, seed);
    dare::obs::PhaseProfiler prof;
    dare::obs::TraceCollector tracer;
    if (traced) {
      opts.profiler = &prof;
      opts.tracer = &tracer;
    }
    dare::cluster::Cluster sim(opts);
    const double t1 = cpu_s();
    const auto result = sim.run_stream(spec);
    const double t2 = cpu_s();
    const std::uint64_t a1 = dare::bench::allocation_count();
    out.num("setup_cpu_s", t1 - t0)
        .num("run_cpu_s", t2 - t1)
        .num("allocs", a1 - a0)
        .num("peak_rss_kb", static_cast<std::uint64_t>(
                                dare::obs::PhaseProfiler::peak_rss_bytes() /
                                1024))
        .num("workers", static_cast<std::uint64_t>(sim.worker_count()));
    describe_result(out, result);
    out.str("layer_check", w.check(result, sim.worker_count()));
    if (traced) describe_trace(out, prof, tracer);
    try {
      sim.validate();
      out.boolean("valid", true);
    } catch (const std::exception& e) {
      ok = false;
      out.boolean("valid", false).str("error", e.what());
    }
  } catch (const std::exception& e) {
    ok = false;
    out.boolean("valid", false).str("error", e.what());
  }
  std::printf("%s\n", out.str().c_str());
  return ok ? 0 : 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: dare_perfbench list <workload> <seed> [toy]\n"
               "       dare_perfbench run <workload> <cell> <seed> "
               "plain|traced [toy]\n");
  return 2;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 3) return usage();
  const Workload* w = find_workload(args[1]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args[1].c_str());
    return 2;
  }
  const bool toy = args.back() == "toy";
  if (args[0] == "list" && args.size() == 3u + toy) {
    const std::uint64_t seed = std::strtoull(args[2].c_str(), nullptr, 10);
    for (std::size_t i = 0; i < w->panel; ++i) {
      const std::uint64_t s = panel_seed(seed, i);
      for (std::size_t c = 0; c < w->cells.size(); ++c) {
        const auto seed_ull = static_cast<unsigned long long>(s);
        std::printf("%zu %llu %s@%llu\n", c, seed_ull,
                    cell_name(w->cells[c], toy).c_str(), seed_ull);
      }
    }
    return 0;
  }
  if (args[0] != "run" || args.size() != 5u + toy) return usage();
  const std::size_t cell = std::strtoull(args[2].c_str(), nullptr, 10);
  const std::uint64_t seed = std::strtoull(args[3].c_str(), nullptr, 10);
  const bool traced = args[4] == "traced";
  if (cell >= w->cells.size() || (!traced && args[4] != "plain")) {
    return usage();
  }
  return run_cell(*w, w->cells[cell], seed, traced, toy);
}
