// Scheduler-fairness bench (extension; context for the paper's workload
// choice): wl2's periodic large scans starve small jobs under FIFO, which
// is exactly why the Fair scheduler exists — and why the paper evaluates
// both. Reports Jain's index over per-job slowdowns, the worst-case
// slowdown ratio, and how DARE shifts both (better locality shortens the
// large jobs' occupancy, which helps everyone).
//
// Overrides: jobs=<n> nodes=<n> seed=<n> progress=1
#include "bench_common.h"
#include "cluster/experiment.h"
#include "metrics/fairness.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 400);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Scheduler fairness on wl2 (small jobs after large jobs)",
                "context for DARE (CLUSTER'11) Section V-A workload choice");

  const auto wl = cluster::standard_wl2(nodes, jobs, seed);

  std::vector<cluster::ClusterOptions> cells;
  std::vector<std::string> labels;
  for (const auto sched : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
    for (const auto policy :
         {PolicyKind::kVanilla, PolicyKind::kElephantTrap}) {
      labels.push_back(std::string(cluster::scheduler_name(sched)) + " / " +
                       cluster::policy_name(policy));
      cells.push_back(cluster::paper_defaults(net::cct_profile(nodes), sched,
                                              policy, seed));
    }
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"scheduler / policy", "Jain fairness", "mean slowdown",
                    "worst/median slowdown", "GMTT (s)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.add_row({labels[i], fmt_fixed(metrics::slowdown_fairness(r), 3),
                   fmt_fixed(r.mean_slowdown, 2),
                   fmt_fixed(metrics::worst_case_slowdown_ratio(r), 2),
                   fmt_fixed(r.gmtt_s, 2)});
  }
  table.print(std::cout, "\nFairness over per-job slowdowns (wl2)");
  std::cout << "\nExpected: Fair scheduling raises Jain's index and slashes "
               "the mean slowdown relative to FIFO\n(small jobs stop queuing "
               "behind large scans). The worst/median ratio can *rise* under "
               "Fair —\nnot because the worst job got worse, but because the "
               "median job got so much better. DARE\nimproves the absolute "
               "numbers under both schedulers.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
