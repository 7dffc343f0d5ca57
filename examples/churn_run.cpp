// Churn demo: the same workload on a quiet cluster and on one where nodes
// continuously fail and rejoin. Shows heartbeat-timeout detection, rejoin
// reconciliation (stale replicas pruned when repair won the race), task
// retry limits, and that every job is still terminally accounted.
//
// Usage: churn_run [jobs=N] [nodes=N] [mtbf_s=S] [mttr_s=S]
//                  [plus every cluster override but faults=, which the demo
//                   toggles itself: policy=, permanent_fraction=, seed=, ...]
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

  // The churn preset comes first, so every override wins over it.
  auto base = cluster::paper_defaults(net::ec2_profile(nodes),
                                      cluster::SchedulerKind::kFair,
                                      cluster::PolicyKind::kElephantTrap);
  base.faults.mtbf_s = 120.0;
  base.faults.mttr_s = 30.0;
  base.faults.permanent_fraction = 0.2;
  base.faults.rack_correlation = 0.2;
  base.faults.task_failure_prob = 0.005;
  base.faults.min_live_workers = 4;
  base.rereplication_interval = from_seconds(2.0);
  base = cluster::apply_overrides(base, cfg);

  AsciiTable table({"configuration", "locality", "GMTT (s)", "failures",
                    "detected", "mean detect (s)", "rejoins", "re-executed",
                    "repaired", "pruned", "corrupt reads", "data loss",
                    "unavail (s)", "failed jobs"});
  for (const bool with_churn : {false, true}) {
    auto options = base;
    options.faults.enabled = with_churn;
    const auto result = cluster::run_once(options, wl);
    table.add_row({with_churn ? "stochastic churn" : "quiet cluster",
                   fmt_percent(result.locality), fmt_fixed(result.gmtt_s, 2),
                   std::to_string(result.node_failures),
                   std::to_string(result.failures_detected),
                   fmt_fixed(result.mean_detection_latency_s, 2),
                   std::to_string(result.node_rejoins),
                   std::to_string(result.task_reexecutions),
                   std::to_string(result.rereplicated_blocks),
                   std::to_string(result.overreplication_prunes),
                   std::to_string(result.corrupt_reads),
                   std::to_string(result.data_loss_events),
                   fmt_fixed(result.unavailability_total_s, 1),
                   std::to_string(result.failed_jobs)});
  }
  table.print(std::cout,
              "Churn demo — " + std::to_string(nodes) + "-node cluster, " +
                  std::string(cluster::policy_name(base.policy)) +
                  " policy, MTBF " +
                  std::to_string(static_cast<int>(base.faults.mtbf_s)) +
                  " s / MTTR " +
                  std::to_string(static_cast<int>(base.faults.mttr_s)) + " s");
  std::cout << "\nThe name node only learns of a death after 3 missed "
               "heartbeats (9 s), re-replicates the\ndead node's blocks, and "
               "when the node rejoins it reconciles: surplus stale replicas "
               "are\npruned, the replication policies rebuild from the "
               "surviving disk, and interrupted tasks\nretry elsewhere (up "
               "to 4 attempts before the job fails cleanly).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {dare::cluster::override_keys_for({"jobs"}, {"faults"})},
      run);
}
