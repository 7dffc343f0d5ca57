// Clone-vs-speculate-vs-nothing sweep (extension; motivated by Section
// II-B's unpredictable node performance and the LATE work [26] the paper
// cites). Under heavy-tailed task inflation and degraded-mode nodes,
// compares four mitigation stances — nothing, reactive speculation,
// budgeted proactive cloning, and cloning plus progress-rate straggler
// detection — across three environments (quiet, stragglers, stragglers +
// node churn).
//
// Reported per cell: GMTT, p95 turnaround (the tail the mitigations
// target), locality, clone/speculation activity, wasted clone work
// (runtime burned by losing clones = the budget's overhead), and the extra
// input reads clones cost (each clone re-reads its task's input block).
//
// Overrides: jobs=<n> nodes=<n> seed=<n> tail_prob=<p> tail_cap=<x>
//            clone_budget=<frac> csv=<prefix> progress=0|1
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

double p95_turnaround(const metrics::RunResult& r) {
  std::vector<double> t;
  t.reserve(r.jobs.size());
  for (const auto& jm : r.jobs) {
    if (!jm.failed) t.push_back(jm.turnaround_s());
  }
  if (t.empty()) return 0.0;
  std::sort(t.begin(), t.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(t.size()))) - 1;
  return t[std::min(idx, t.size() - 1)];
}

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 250);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
  const double tail_prob = cfg.get_double("tail_prob", 0.15);
  const double tail_cap = cfg.get_double("tail_cap", 12.0);
  const double clone_budget = cfg.get_double("clone_budget", 0.15);

  bench::banner("Budgeted task cloning vs speculation under heavy-tailed "
                "stragglers (EC2 profile)",
                "extension of DARE (CLUSTER'11) Section II-B");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);

  struct Mitigation {
    std::string label;
    bool speculation;
    bool cloning;
    bool detection;
  };
  const std::vector<Mitigation> mitigations = {
      {"nothing", false, false, false},
      {"speculation", true, false, false},
      {"cloning", false, true, false},
      {"cloning+detect", false, true, true},
  };
  struct Environment {
    std::string label;
    bool stragglers;
    bool churn;
  };
  const std::vector<Environment> environments = {
      {"quiet", false, false},
      {"stragglers", true, false},
      {"stragglers+churn", true, true},
  };

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& env : environments) {
    for (const auto& mit : mitigations) {
      auto options = cluster::paper_defaults(net::ec2_profile(nodes),
                                             SchedulerKind::kFair,
                                             PolicyKind::kElephantTrap, seed);
      if (env.stragglers) {
        options.stragglers.enabled = true;
        options.stragglers.degrade_mtbf_s = 180.0;
        options.stragglers.degrade_duration_s = 45.0;
        options.stragglers.compute_slowdown = 4.0;
        options.stragglers.disk_slowdown = 2.5;
        options.stragglers.rack_correlation = 0.2;
        options.stragglers.tail_prob = tail_prob;
        options.stragglers.tail_alpha = 1.1;
        options.stragglers.tail_cap = tail_cap;
      }
      if (env.churn) {
        options.faults.enabled = true;
        options.faults.mtbf_s = 120.0;
        options.faults.mttr_s = 30.0;
        options.faults.permanent_fraction = 0.2;
        options.faults.min_live_workers = 4;
        options.rereplication_interval = from_seconds(2.0);
      }
      options.enable_speculation = mit.speculation;
      options.enable_task_cloning = mit.cloning;
      options.clone_budget_fraction = clone_budget;
      options.enable_straggler_detection = mit.detection;
      cells.push_back(options);
    }
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"environment", "mitigation", "GMTT (s)", "p95 (s)",
                    "locality %", "clones", "clone wins", "wasted (s)",
                    "clone reads", "spec", "spec wins", "detected",
                    "failed jobs"});
  std::size_t i = 0;
  for (const auto& env : environments) {
    for (const auto& mit : mitigations) {
      const auto& r = results[i++];
      table.add_row({env.label, mit.label, fmt_fixed(r.gmtt_s, 2),
                     fmt_fixed(p95_turnaround(r), 2),
                     fmt_fixed(r.locality * 100.0, 1),
                     std::to_string(r.clones_launched),
                     std::to_string(r.clone_wins),
                     fmt_fixed(r.clone_wasted_work_s, 1),
                     std::to_string(r.clones_launched),
                     std::to_string(r.speculative_launched),
                     std::to_string(r.speculative_wins),
                     std::to_string(r.stragglers_detected),
                     std::to_string(r.failed_jobs)});
    }
  }
  table.print(std::cout,
              "\ntail P(inflate) " + fmt_fixed(tail_prob, 2) +
                  ", bounded-Pareto cap " + fmt_fixed(tail_cap, 0) +
                  "x, clone budget " + fmt_percent(clone_budget, 0) +
                  " of map slots (Fair + ElephantTrap, wl1)");
  std::cout
      << "\nExpected: heavy tails inflate the p95 turnaround far more than "
         "the GMTT. Speculation\nreacts once a task is observably slow; "
         "cloning hedges up front and clips the tail at the\ncost of the "
         "wasted work and duplicate input reads reported above; detection "
         "additionally\nsteers launches and read/repair sources away from "
         "persistently slow nodes.\n";
  bench::maybe_write_csv(cfg, "cloning_sweep", table);
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv,
                          {{"clone_budget", "csv", "jobs", "nodes",
                            "progress", "seed", "tail_cap", "tail_prob"}},
                          dare::run);
}
