// Figure 11: uniformity of the replica placement — coefficient of variation
// of the per-node popularity indices before dynamic replication and after a
// full wl1 run with DARE enabled, as a function of the ElephantTrap
// probability p (FIFO scheduler, budget=0.2, threshold=1).
//
// Overrides: jobs=<n> nodes=<n> seed=<n> progress=1
#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 500);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Fig. 11 — uniformity of the replica placement",
                "DARE (CLUSTER'11) Fig. 11");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);
  const std::vector<double> ps = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9, 1.0};

  std::vector<cluster::ClusterOptions> cells;
  for (const double p : ps) {
    auto options = cluster::paper_defaults(
        net::cct_profile(nodes), cluster::SchedulerKind::kFifo,
        cluster::PolicyKind::kElephantTrap, seed);
    options.trap.p = p;
    options.trap.threshold = 1;
    options.budget_fraction = 0.2;
    cells.push_back(options);
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"p", "cv before DARE", "cv after DARE"});
  for (std::size_t i = 0; i < ps.size(); ++i) {
    table.add_row({fmt_fixed(ps[i], 1), fmt_fixed(results[i].cv_before, 3),
                   fmt_fixed(results[i].cv_after, 3)});
  }
  table.print(std::cout,
              "\nCoefficient of variation of node popularity indices "
              "(smaller = more uniform)");
  std::cout << "\nPaper shape: cv after DARE sits below cv before; the "
               "placement gains significant uniformity by p = 0.2.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
