// Network-fault demo: the same workload on a quiet cluster, then with rack
// partitions and degraded uplinks raging, then with the mitigation ladder
// stepped up — the plain FIFO repair queue versus the prioritized
// bandwidth-aware repair scheduler that lets critically-exposed blocks
// (one reachable replica left) jump the bulk re-replication backlog.
//
// Usage: netfault_run [jobs=N] [nodes=N]
//                     [plus every cluster override but netfault= and
//                      repair_policy=, which the demo varies itself:
//                      part_mtbf_s=, repairs_per_uplink=, ...]
#include <iostream>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 300);

  const auto wl = cluster::standard_wl1(nodes, jobs);

  // Default network-fault climate; every knob the variants below do not set
  // is overridable from the CLI. Mild node churn underneath keeps the
  // repair pipeline honest.
  auto base = cluster::paper_defaults(net::ec2_profile(nodes),
                                      cluster::SchedulerKind::kFair,
                                      cluster::PolicyKind::kElephantTrap);
  base.faults.enabled = true;
  base.faults.mtbf_s = 240.0;
  base.faults.mttr_s = 30.0;
  base.faults.permanent_fraction = 0.15;
  base.faults.min_live_workers = 4;
  base.netfault.partition_mtbf_s = 120.0;
  base.netfault.partition_duration_s = 20.0;
  base.netfault.link_degrade_mtbf_s = 90.0;
  base.netfault.link_degrade_duration_s = 40.0;
  base.rereplication_interval = from_seconds(1.0);
  base.rereplication_batch = 32;
  base = cluster::apply_overrides(base, cfg);

  struct Variant {
    const char* name;
    bool netfault;
    cluster::RepairPolicy repair;
  };
  const Variant variants[] = {
      {"quiet network", false, cluster::RepairPolicy::kFifo},
      {"partitions, fifo repair", true, cluster::RepairPolicy::kFifo},
      {"partitions, prioritized repair", true,
       cluster::RepairPolicy::kPrioritized},
  };

  AsciiTable table({"configuration", "GMTT (s)", "locality", "partitions",
                    "healed", "link degrades", "unreach reads", "retries",
                    "repaired", "1-rep windows", "1-rep (s)", "failed jobs"});
  for (const auto& v : variants) {
    auto options = base;
    options.netfault.enabled = v.netfault;
    options.repair_policy = v.repair;
    const auto result = cluster::run_once(options, wl);
    table.add_row({v.name, fmt_fixed(result.gmtt_s, 2),
                   fmt_percent(result.locality),
                   std::to_string(result.partition_episodes),
                   std::to_string(result.partitions_healed),
                   std::to_string(result.link_degrade_episodes),
                   std::to_string(result.unreachable_reads),
                   std::to_string(result.repair_retries),
                   std::to_string(result.repairs_landed),
                   std::to_string(result.one_replica_windows),
                   fmt_fixed(result.one_replica_total_s, 1),
                   std::to_string(result.failed_jobs)});
  }
  table.print(
      std::cout,
      "Network-fault demo — " + std::to_string(nodes) + "-node cluster, " +
          std::string(cluster::policy_name(base.policy)) +
          " policy, partition MTBF " +
          std::to_string(static_cast<int>(base.netfault.partition_mtbf_s)) +
          " s, episodes " +
          std::to_string(
              static_cast<int>(base.netfault.partition_duration_s)) +
          " s");
  std::cout
      << "\nA partitioned rack keeps computing but stops heartbeating: the "
         "name node declares its\nnodes dead and queues re-replication for "
         "their blocks; reads past the boundary fail\nfast after a connect "
         "timeout. When the partition heals, the nodes re-register and\n"
         "surplus repair copies are pruned. The prioritized repair "
         "scheduler drains blocks down\nto one reachable replica before any "
         "bulk backlog, shrinking the exposure windows a\nfifo queue leaves "
         "open.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv,
      {dare::cluster::override_keys_for({"jobs"},
                                        {"netfault", "repair_policy"})},
      run);
}
