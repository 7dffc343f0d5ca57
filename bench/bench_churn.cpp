// Node-churn bench (robustness extension): continuous stochastic failures
// instead of a fixed kill schedule. Every worker fails with exponential
// MTBF; failures are transient (node rejoins after MTTR and reconciles its
// stale disk) or permanent, optionally taking the whole rack down. The
// name node learns of deaths only through missed heartbeats.
//
// Reports, per scheduler x policy: locality, GMTT, failure/detection/rejoin
// counts, mean heartbeat detection latency, repair and reconciliation
// traffic, and terminal job accounting under task-attempt retry limits.
//
// Overrides: jobs=<n> nodes=<n> seed=<n> mtbf_s=<s> mttr_s=<s> progress=1
//            permanent_fraction=<p> rack_correlation=<p>
//            task_failure_prob=<p>
#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 300);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Node churn — stochastic failures, heartbeat detection, "
                "rejoin reconciliation",
                "robustness extension of DARE (CLUSTER'11)");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);

  struct Variant {
    std::string label;
    SchedulerKind scheduler;
    PolicyKind policy;
  };
  const std::vector<Variant> variants = {
      {"fifo / vanilla", SchedulerKind::kFifo, PolicyKind::kVanilla},
      {"fifo / dare-lru", SchedulerKind::kFifo, PolicyKind::kGreedyLru},
      {"fifo / dare-et", SchedulerKind::kFifo, PolicyKind::kElephantTrap},
      {"fair / vanilla", SchedulerKind::kFair, PolicyKind::kVanilla},
      {"fair / dare-lru", SchedulerKind::kFair, PolicyKind::kGreedyLru},
      {"fair / dare-et", SchedulerKind::kFair, PolicyKind::kElephantTrap},
  };

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& variant : variants) {
    // ec2 profile: multi-rack, so rack-correlated failures have teeth.
    auto options = cluster::paper_defaults(net::ec2_profile(nodes),
                                           variant.scheduler, variant.policy,
                                           seed);
    options.faults.enabled = true;
    options.faults.mtbf_s = cfg.get_double("mtbf_s", 120.0);
    options.faults.mttr_s = cfg.get_double("mttr_s", 30.0);
    options.faults.permanent_fraction =
        cfg.get_double("permanent_fraction", 0.2);
    options.faults.rack_correlation = cfg.get_double("rack_correlation", 0.2);
    options.faults.task_failure_prob =
        cfg.get_double("task_failure_prob", 0.005);
    options.faults.min_live_workers = 4;
    options.rereplication_interval = from_seconds(2.0);
    options.rereplication_batch = 32;
    cells.push_back(options);
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"configuration", "locality %", "GMTT (s)", "failures",
                    "detected", "mean detect (s)", "rejoins", "repaired",
                    "pruned", "failed jobs"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = results[i];
    table.add_row({variants[i].label, fmt_fixed(r.locality * 100.0, 1),
                   fmt_fixed(r.gmtt_s, 2), std::to_string(r.node_failures),
                   std::to_string(r.failures_detected),
                   fmt_fixed(r.mean_detection_latency_s, 2),
                   std::to_string(r.node_rejoins),
                   std::to_string(r.rereplicated_blocks),
                   std::to_string(r.overreplication_prunes),
                   std::to_string(r.failed_jobs)});
  }
  table.print(std::cout, "\nStochastic churn, heartbeat detection (3 missed "
                         "x 3 s beats), max 4 task attempts");
  std::cout << "\nExpected: mean detection latency hovers around K heartbeat "
               "intervals (~9 s; each latency\nlies in (6, 12] s depending "
               "on where in the beat cycle the node died); rejoin pruning\n"
               "fires whenever repair wins the race against a transient "
               "outage; DARE policies keep\nlocality ahead of vanilla even "
               "while nodes churn.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv,
                          {{"jobs", "mtbf_s", "mttr_s", "nodes",
                            "permanent_fraction", "progress",
                            "rack_correlation", "seed", "task_failure_prob"}},
                          dare::run);
}
