// Ablation bench (beyond the paper's figures):
//  1. Eviction-policy ablation — vanilla vs greedy-LRU vs greedy-LFU vs
//     ElephantTrap, including the dynamic-replica disk-write counts behind
//     the paper's "comparable locality with ~50% of the disk writes" claim.
//  2. Reactive vs proactive — DARE vs a Scarlett-style epoch-based
//     replicator (the paper's comparator), contrasting locality and the
//     explicit network bytes the proactive scheme must move.
//  3. Heartbeat-interval ablation — how stale metadata delays the benefit
//     of freshly created replicas.
//
// Overrides: jobs=<n> nodes=<n> seed=<n> progress=1
#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 400);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Ablations — eviction policy, reactive vs proactive, "
                "heartbeat staleness",
                "DARE (CLUSTER'11) design-choice ablations");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);

  // --- 1. eviction policies ----------------------------------------------
  struct PolicyRow {
    std::string label;
    PolicyKind policy;
  };
  const std::vector<PolicyRow> policy_rows = {
      {"vanilla", PolicyKind::kVanilla},
      {"greedy-lru", PolicyKind::kGreedyLru},
      {"greedy-lfu", PolicyKind::kGreedyLfu},
      {"elephant-trap p=0.3", PolicyKind::kElephantTrap}};

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& row : policy_rows) {
    cells.push_back(cluster::paper_defaults(
        net::cct_profile(nodes), SchedulerKind::kFifo, row.policy, seed));
  }
  // --- 2. Scarlett-style proactive baseline -------------------------------
  {
    auto options = cluster::paper_defaults(net::cct_profile(nodes),
                                           SchedulerKind::kFifo,
                                           PolicyKind::kVanilla, seed);
    options.enable_scarlett = true;
    options.scarlett.epoch = from_seconds(30.0);
    options.scarlett.budget_fraction = 0.2;
    cells.push_back(options);
  }
  // --- 3. heartbeat sweep (ElephantTrap) ----------------------------------
  const std::vector<double> heartbeats_s = {1.0, 3.0, 10.0, 30.0};
  for (const double hb : heartbeats_s) {
    auto options = cluster::paper_defaults(net::cct_profile(nodes),
                                           SchedulerKind::kFifo,
                                           PolicyKind::kElephantTrap, seed);
    options.heartbeat_interval = from_seconds(hb);
    cells.push_back(options);
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable ptable({"configuration", "locality %", "norm. GMTT",
                     "disk writes", "net bytes (MiB)"});
  const double vanilla_gmtt = results[0].gmtt_s;
  for (std::size_t i = 0; i < policy_rows.size(); ++i) {
    const auto& r = results[i];
    ptable.add_row({policy_rows[i].label, fmt_fixed(r.locality * 100.0, 1),
                    fmt_fixed(r.gmtt_s / vanilla_gmtt, 3),
                    std::to_string(r.dynamic_replica_disk_writes),
                    fmt_fixed(static_cast<double>(
                                  r.proactive_replication_bytes) /
                                  static_cast<double>(kMiB),
                              0)});
  }
  {
    const auto& r = results[policy_rows.size()];
    ptable.add_row({"scarlett-style epochs",
                    fmt_fixed(r.locality * 100.0, 1),
                    fmt_fixed(r.gmtt_s / vanilla_gmtt, 3),
                    std::to_string(r.dynamic_replica_disk_writes),
                    fmt_fixed(static_cast<double>(
                                  r.proactive_replication_bytes) /
                                  static_cast<double>(kMiB),
                              0)});
  }
  ptable.print(std::cout,
               "\n(1+2) Eviction policies and the proactive comparator "
               "(FIFO, wl1)");
  std::cout << "\nExpected: ElephantTrap reaches locality comparable to "
               "greedy LRU with roughly half the disk writes; only the "
               "Scarlett-style scheme moves explicit network bytes.\n";

  AsciiTable htable({"heartbeat interval (s)", "locality %", "norm. GMTT"});
  const std::size_t hb_base = policy_rows.size() + 1;
  for (std::size_t i = 0; i < heartbeats_s.size(); ++i) {
    const auto& r = results[hb_base + i];
    htable.add_row({fmt_fixed(heartbeats_s[i], 0),
                    fmt_fixed(r.locality * 100.0, 1),
                    fmt_fixed(r.gmtt_s / vanilla_gmtt, 3)});
  }
  htable.print(std::cout, "\n(3) Heartbeat staleness (ElephantTrap, FIFO, "
                          "wl1)");
  std::cout << "\nExpected: replicas only become schedulable at the next "
               "heartbeat, so longer intervals erode the locality gain.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
