// Delay-scheduling sweep (context for the Fair scheduler rows of Figs. 7
// and 10): how the delay window trades waiting for locality, and how DARE
// shifts that tradeoff. With more replicas per popular block, a *shorter*
// delay suffices for the same locality — DARE effectively buys back the
// latency that delay scheduling spends.
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

  bench::banner("Delay-scheduling sweep — waiting vs locality, with and "
                "without DARE",
                "context for DARE (CLUSTER'11) Fair-scheduler results");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);
  const std::vector<double> delays_ms = {0, 100, 250, 500, 1000, 2000, 4000};

  std::vector<cluster::ClusterOptions> cells;
  for (const auto policy :
       {PolicyKind::kVanilla, PolicyKind::kElephantTrap}) {
    for (const double delay : delays_ms) {
      auto options = cluster::paper_defaults(
          net::cct_profile(nodes), SchedulerKind::kFair, policy, seed);
      options.fair_delay = from_millis(delay);
      cells.push_back(options);
    }
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"delay (ms)", "vanilla locality %", "vanilla GMTT (s)",
                    "DARE locality %", "DARE GMTT (s)"});
  for (std::size_t i = 0; i < delays_ms.size(); ++i) {
    const auto& vanilla = results[i];
    const auto& dare = results[delays_ms.size() + i];
    table.add_row({fmt_fixed(delays_ms[i], 0),
                   fmt_fixed(vanilla.locality * 100.0, 1),
                   fmt_fixed(vanilla.gmtt_s, 2),
                   fmt_fixed(dare.locality * 100.0, 1),
                   fmt_fixed(dare.gmtt_s, 2)});
  }
  table.print(std::cout, "\nFair scheduler, wl1, sweeping the delay window");
  std::cout << "\nExpected: vanilla needs a long delay to reach high "
               "locality (and pays for it in GMTT at the\nextremes); with "
               "DARE's extra replicas even delay=0 starts far higher, and "
               "locality saturates\nwith a much shorter wait.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "nodes", "progress", "seed"}}, dare::run);
}
