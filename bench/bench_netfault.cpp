// Network-fault bench (robustness extension): rack-switch partitions and
// degraded inter-rack uplinks on top of stochastic node churn. Partitioned
// racks stop heartbeating (the name node declares them dead and queues
// repairs for a false positive), reads past the boundary fail fast, and
// heal-time re-registration prunes whatever the repair pipeline duplicated
// in the meantime.
//
// The sweep crosses two partition climates (calm / stormy) with the two
// repair-scheduler policies (plain FIFO vs. the prioritized bandwidth-aware
// scheduler) across every scheduler x cache-policy combination, and reports
// the durability story: data-loss events and how long blocks sat exposed at
// one reachable replica.
//
// Overrides: jobs=<n> nodes=<n> seed=<n> calm_mtbf_s=<s> storm_mtbf_s=<s>
//            progress=1, plus every cluster override key except the four
//            the sweep varies itself (scheduler, policy, repair_policy,
//            part_mtbf_s)
#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::RepairPolicy;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 300);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Network faults — rack partitions, degraded uplinks, "
                "prioritized bandwidth-aware repair",
                "robustness extension of DARE (CLUSTER'11)");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);

  struct Variant {
    std::string label;
    SchedulerKind scheduler;
    PolicyKind policy;
    RepairPolicy repair;
    double partition_mtbf_s;
  };
  const double calm = cfg.get_double("calm_mtbf_s", 240.0);
  const double storm = cfg.get_double("storm_mtbf_s", 90.0);

  std::vector<Variant> variants;
  for (const double mtbf : {calm, storm}) {
    for (const auto repair : {RepairPolicy::kFifo, RepairPolicy::kPrioritized}) {
      for (const auto scheduler : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
        for (const auto policy : {PolicyKind::kVanilla, PolicyKind::kGreedyLru,
                                  PolicyKind::kElephantTrap}) {
          std::string label = mtbf == calm ? "calm" : "storm";
          label += repair == RepairPolicy::kFifo ? " / fifo-rep" : " / prio-rep";
          label += scheduler == SchedulerKind::kFifo ? " / fifo" : " / fair";
          label += policy == PolicyKind::kVanilla     ? " / vanilla"
                   : policy == PolicyKind::kGreedyLru ? " / dare-lru"
                                                      : " / dare-et";
          variants.push_back({label, scheduler, policy, repair, mtbf});
        }
      }
    }
  }

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& variant : variants) {
    // ec2 profile: multi-rack, so partitions actually cut something.
    auto options = cluster::paper_defaults(net::ec2_profile(nodes),
                                           variant.scheduler, variant.policy,
                                           seed);
    options.faults.enabled = true;
    options.faults.mtbf_s = 180.0;
    options.faults.mttr_s = 30.0;
    options.faults.permanent_fraction = 0.15;
    options.faults.min_live_workers = 4;
    options.netfault.enabled = true;
    options.netfault.partition_mtbf_s = variant.partition_mtbf_s;
    options.netfault.partition_duration_s = 20.0;
    options.netfault.link_degrade_mtbf_s = 120.0;
    options.netfault.link_degrade_duration_s = 40.0;
    options.repair_policy = variant.repair;
    options.rereplication_interval = from_seconds(1.0);
    options.rereplication_batch = 32;
    // Cluster-level knobs (bandwidth_cut, repairs_per_uplink, ...) remain
    // overridable from the command line for ad-hoc sweeps; main() does not
    // accept the four knobs the sweep varies itself.
    cells.push_back(cluster::apply_overrides(options, cfg));
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"configuration", "locality %", "GMTT (s)", "partitions",
                    "healed", "unreach reads", "retries", "preempt",
                    "data loss", "1-rep wins", "1-rep (s)"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = results[i];
    table.add_row({variants[i].label, fmt_fixed(r.locality * 100.0, 1),
                   fmt_fixed(r.gmtt_s, 2),
                   std::to_string(r.partition_episodes),
                   std::to_string(r.partitions_healed),
                   std::to_string(r.unreachable_reads),
                   std::to_string(r.repair_retries),
                   std::to_string(r.repair_preemptions),
                   std::to_string(r.data_loss_events),
                   std::to_string(r.one_replica_windows),
                   fmt_fixed(r.one_replica_total_s, 1)});
  }
  table.print(std::cout,
              "\nPartition climates: calm (mtbf " + fmt_fixed(calm, 0) +
                  " s) vs storm (mtbf " + fmt_fixed(storm, 0) +
                  " s), 20 s episodes; churn mtbf 180 s underneath");
  std::cout << "\nExpected: the prioritized repair scheduler cuts "
               "one-replica exposure by up to an order\nof magnitude "
               "(critical blocks jump the bulk backlog) and lowers GMTT — "
               "which also ends\nruns sooner, so fewer episodes and retries "
               "accrue on the same stochastic clock.\nPreemption counts are "
               "per-tick bulk deferrals and are nonzero only for prio-rep;\n"
               "the gap widens from calm to storm.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv,
      {dare::cluster::override_keys_for(
          {"calm_mtbf_s", "jobs", "progress", "storm_mtbf_s"},
          {"part_mtbf_s", "policy", "repair_policy", "scheduler"})},
      dare::run);
}
