// Figure 8: sensitivity of DARE/ElephantTrap to (a) the sampling
// probability p (threshold=1, budget=0.2) and (b) the aging threshold
// (p=0.9, budget=0.5), on workload wl2 under both schedulers. Reports data
// locality and the average number of blocks dynamically created per job.
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

  bench::banner("Fig. 8 — sensitivity to p and threshold (wl2)",
                "DARE (CLUSTER'11) Fig. 8a/8b");

  const auto wl = cluster::standard_wl2(nodes, jobs, seed);

  // --- (a) sweep p; threshold = 1, budget = 0.2 -------------------------
  const std::vector<double> ps = {0.0, 0.1, 0.2, 0.3, 0.4,
                                  0.5, 0.6, 0.7, 0.8, 0.9};
  std::vector<cluster::ClusterOptions> cells;
  for (const auto sched : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
    for (const double p : ps) {
      auto options = cluster::paper_defaults(
          net::cct_profile(nodes), sched, PolicyKind::kElephantTrap, seed);
      options.trap.p = p;
      options.trap.threshold = 1;
      options.budget_fraction = 0.2;
      cells.push_back(options);
    }
  }
  // --- (b) sweep threshold; p = 0.9, budget = 0.5 (paper parameters) and
  // additionally budget = 0.1, where the budget binds at simulator scale
  // and the competitive-aging mechanism is actually exercised.
  const std::vector<int> thresholds = {1, 2, 3, 4, 5};
  const std::vector<double> threshold_budgets = {0.5, 0.1};
  for (const double budget : threshold_budgets) {
    for (const auto sched : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
      for (const int thr : thresholds) {
        auto options = cluster::paper_defaults(
            net::cct_profile(nodes), sched, PolicyKind::kElephantTrap, seed);
        options.trap.p = 0.9;
        options.trap.threshold = static_cast<std::uint32_t>(thr);
        options.budget_fraction = budget;
        cells.push_back(options);
      }
    }
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable ptable({"p", "FIFO locality %", "FIFO blocks/job",
                     "Fair locality %", "Fair blocks/job"});
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto& fifo = results[i];
    const auto& fair = results[ps.size() + i];
    ptable.add_row({fmt_fixed(ps[i], 1),
                    fmt_fixed(fifo.locality * 100.0, 1),
                    fmt_fixed(fifo.blocks_created_per_job, 2),
                    fmt_fixed(fair.locality * 100.0, 1),
                    fmt_fixed(fair.blocks_created_per_job, 2)});
  }
  ptable.print(std::cout,
               "\n(8a) Effect of replication probability p "
               "(threshold=1, budget=0.20)");

  std::size_t base = 2 * ps.size();
  for (const double budget : threshold_budgets) {
    AsciiTable ttable({"threshold", "FIFO locality %", "FIFO blocks/job",
                       "Fair locality %", "Fair blocks/job"});
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      const auto& fifo = results[base + i];
      const auto& fair = results[base + thresholds.size() + i];
      ttable.add_row({std::to_string(thresholds[i]),
                      fmt_fixed(fifo.locality * 100.0, 1),
                      fmt_fixed(fifo.blocks_created_per_job, 2),
                      fmt_fixed(fair.locality * 100.0, 1),
                      fmt_fixed(fair.blocks_created_per_job, 2)});
    }
    base += 2 * thresholds.size();
    ttable.print(std::cout, "\n(8b) Effect of eviction threshold (p=0.90, "
                            "budget=" + fmt_fixed(budget, 2) + ")");
    if (budget == 0.5) {
      std::cout << "    (at simulator scale the 0.50 budget never fills, so "
                   "no evictions occur and the threshold\n     is inert — "
                   "the strong form of the paper's own finding that DARE is "
                   "'not too sensitive' to it)\n";
    }
  }

  std::cout << "\nPaper shape: locality rises with p (sweet spot p=0.2-0.3); "
               "higher thresholds slowly reduce locality and slowly raise "
               "replica churn.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
