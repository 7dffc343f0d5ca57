// Fault-tolerance bench (extension; motivated by Section IV-B: "Replicas
// created by DARE are first-order replicas and as such they also contribute
// to increasing availability of the data in the presence of failures").
//
// Kills two workers mid-run (at 1/6 and 3/5 of the worker range) and
// reports, for vanilla vs DARE: task re-executions, repair traffic,
// surviving replica counts, and the locality resilience during the repair
// window.
//
// Overrides: jobs=<n> nodes=<n> (>= 4) seed=<n> progress=1
#include <stdexcept>

#include "bench_common.h"
#include "cluster/experiment.h"
#include "metrics/availability.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

/// End-of-run replica counts per block (static + surviving dynamic).
std::vector<std::size_t> replica_counts(const cluster::Cluster& cluster) {
  std::vector<std::size_t> counts;
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      counts.push_back(nn.locations(bid).size());
    }
  }
  return counts;
}

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 400);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
  // Two scripted failures at fixed fractions of the worker range (workers 3
  // and 11 of the default 19); a third worker must survive them.
  const std::size_t workers = nodes > 0 ? nodes - 1 : 0;
  if (workers < 3) {
    throw std::invalid_argument(
        "two scripted failures need at least 3 workers (nodes >= 4), got "
        "nodes=" + std::to_string(nodes));
  }
  const auto first_victim = static_cast<NodeId>(workers / 6);
  const auto second_victim = static_cast<NodeId>(3 * workers / 5);

  bench::banner("Fault tolerance — node failures under vanilla vs DARE",
                "extension of DARE (CLUSTER'11) Section IV-B");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);

  struct Variant {
    std::string label;
    PolicyKind policy;
    bool rereplication;
  };
  const std::vector<Variant> variants = {
      {"vanilla + repair", PolicyKind::kVanilla, true},
      {"vanilla, no repair", PolicyKind::kVanilla, false},
      {"dare-et + repair", PolicyKind::kElephantTrap, true},
      {"dare-et, no repair", PolicyKind::kElephantTrap, false},
  };

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& variant : variants) {
    auto options = cluster::paper_defaults(
        net::cct_profile(nodes), SchedulerKind::kFifo, variant.policy, seed);
    options.enable_rereplication = variant.rereplication;
    // Two failures one third and two thirds into the expected run.
    options.failures.push_back({from_seconds(15.0), first_victim});
    options.failures.push_back({from_seconds(30.0), second_victim});
    cells.push_back(options);
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"configuration", "locality %", "GMTT (s)",
                    "task re-executions", "repaired blocks", "blocks lost"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = results[i];
    table.add_row({variants[i].label, fmt_fixed(r.locality * 100.0, 1),
                   fmt_fixed(r.gmtt_s, 2),
                   std::to_string(r.task_reexecutions),
                   std::to_string(r.rereplicated_blocks),
                   std::to_string(r.blocks_lost)});
  }
  table.print(std::cout,
              "\nTwo node failures (t=15s, t=30s), FIFO scheduler, wl1");
  std::cout << "\nExpected: every run completes with zero lost blocks "
               "(replication 3 tolerates 2 failures);\nDARE keeps locality "
               "higher through the failures, and its dynamic replicas add "
               "availability\nheadroom even without the repair pipeline.\n";

  // Analytic availability (Section IV-B): run vanilla and DARE WITHOUT
  // failures, then ask — if k random nodes failed right now, how many
  // blocks would be expected to lose every replica?
  cluster::Cluster vanilla_cluster(cluster::paper_defaults(
      net::cct_profile(nodes), SchedulerKind::kFifo, PolicyKind::kVanilla,
      seed));
  cluster::Cluster dare_cluster(cluster::paper_defaults(
      net::cct_profile(nodes), SchedulerKind::kFifo,
      PolicyKind::kElephantTrap, seed));
  (void)vanilla_cluster.run(wl);
  (void)dare_cluster.run(wl);
  const auto vanilla_counts = replica_counts(vanilla_cluster);
  const auto dare_counts = replica_counts(dare_cluster);

  AsciiTable avail({"simultaneous failures k",
                    "E[lost blocks] vanilla", "E[lost blocks] with DARE",
                    "P(any loss) vanilla", "P(any loss) with DARE"});
  for (std::size_t k : {3u, 4u, 5u, 6u}) {
    if (k > workers) break;  // a small cluster cannot lose k nodes
    const auto v =
        metrics::availability_under_failures(workers, vanilla_counts, k);
    const auto d =
        metrics::availability_under_failures(workers, dare_counts, k);
    avail.add_row({std::to_string(k), fmt_fixed(v.expected_lost, 3),
                   fmt_fixed(d.expected_lost, 3),
                   fmt_fixed(v.any_loss_probability, 3),
                   fmt_fixed(d.any_loss_probability, 3)});
  }
  avail.print(std::cout,
              "\nAnalytic availability at end of run (no failures injected; "
              "k random nodes fail simultaneously)");
  std::cout << "\nExpected: DARE's dynamic replicas strictly reduce the "
               "expected loss — they are first-order\nreplicas (Section "
               "IV-B), not a cache.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
