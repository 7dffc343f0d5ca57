// Figure 9: effect of the dynamic replication budget on locality and on
// blocks created per job, for (a) greedy LRU eviction and (b) ElephantTrap
// eviction (threshold=1; p = 0.9 and p = 0.3), on workload wl2.
//
// Overrides: jobs=<n> nodes=<n> seed=<n> progress=1
#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 500);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Fig. 9 — sensitivity to the replication budget (wl2)",
                "DARE (CLUSTER'11) Fig. 9a/9b");

  const auto wl = cluster::standard_wl2(nodes, jobs, seed);
  const std::vector<double> budgets = {0.05, 0.1, 0.2, 0.3, 0.4,
                                       0.5, 0.7, 0.9};

  struct Variant {
    std::string label;
    PolicyKind policy;
    double p;
  };
  const std::vector<Variant> variants = {
      {"LRU", PolicyKind::kGreedyLru, 0.0},
      {"ET p=0.9", PolicyKind::kElephantTrap, 0.9},
      {"ET p=0.3", PolicyKind::kElephantTrap, 0.3}};

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& variant : variants) {
    for (const auto sched : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
      for (const double budget : budgets) {
        auto options = cluster::paper_defaults(net::cct_profile(nodes), sched,
                                               variant.policy, seed);
        options.budget_fraction = budget;
        options.trap.p = variant.p;
        options.trap.threshold = 1;
        cells.push_back(options);
      }
    }
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  std::size_t idx = 0;
  for (const auto& variant : variants) {
    AsciiTable table({"budget", "FIFO locality %", "FIFO blocks/job",
                      "Fair locality %", "Fair blocks/job"});
    const std::size_t fifo_base = idx;
    const std::size_t fair_base = idx + budgets.size();
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      const auto& fifo = results[fifo_base + i];
      const auto& fair = results[fair_base + i];
      table.add_row({fmt_fixed(budgets[i], 2),
                     fmt_fixed(fifo.locality * 100.0, 1),
                     fmt_fixed(fifo.blocks_created_per_job, 2),
                     fmt_fixed(fair.locality * 100.0, 1),
                     fmt_fixed(fair.blocks_created_per_job, 2)});
    }
    idx += 2 * budgets.size();
    table.print(std::cout, "\nDARE with " + variant.label + " eviction");
  }

  std::cout << "\nPaper shape: locality is nearly flat in the budget (even "
               "small budgets capture the most popular files); blocks "
               "created per job falls as the budget grows (less churn).\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
