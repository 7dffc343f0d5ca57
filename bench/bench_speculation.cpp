// Speculative-execution bench (extension; motivated by Section II-B: EC2's
// processor sharing makes node performance unpredictable — the reason the
// paper cites the LATE work [26]). Shows how stragglers hurt turnaround on
// a virtualized cluster, how Hadoop-style backup tasks recover most of the
// loss, and that DARE composes with speculation (a local backup attempt is
// cheap; locality makes speculation cheaper).
//
// Overrides: jobs=<n> nodes=<n> seed=<n> stragglers=<frac> slowdown=<x>
//            progress=1
#include "bench_common.h"
#include "cluster/experiment.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 250);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
  const double stragglers = cfg.get_double("stragglers", 0.2);
  const double slowdown = cfg.get_double("slowdown", 5.0);

  bench::banner("Speculative execution under stragglers (EC2 profile)",
                "extension of DARE (CLUSTER'11) Section II-B");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);

  struct Variant {
    std::string label;
    PolicyKind policy;
    bool stragglers;
    bool speculation;
  };
  const std::vector<Variant> variants = {
      {"clean cluster", PolicyKind::kVanilla, false, false},
      {"stragglers, no speculation", PolicyKind::kVanilla, true, false},
      {"stragglers + speculation", PolicyKind::kVanilla, true, true},
      {"stragglers + speculation + DARE", PolicyKind::kElephantTrap, true,
       true},
  };

  std::vector<cluster::ClusterOptions> cells;
  for (const auto& variant : variants) {
    auto options = cluster::paper_defaults(
        net::ec2_profile(nodes), SchedulerKind::kFifo, variant.policy, seed);
    if (variant.stragglers) {
      options.profile.straggler_fraction = stragglers;
      options.profile.straggler_slowdown = slowdown;
    }
    options.enable_speculation = variant.speculation;
    cells.push_back(options);
  }
  const auto results = bench::run_cells(cfg, cells, wl);

  AsciiTable table({"configuration", "GMTT (s)", "mean slowdown",
                    "backups launched", "backup wins", "killed"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = results[i];
    table.add_row({variants[i].label, fmt_fixed(r.gmtt_s, 2),
                   fmt_fixed(r.mean_slowdown, 2),
                   std::to_string(r.speculative_launched),
                   std::to_string(r.speculative_wins),
                   std::to_string(r.speculative_killed)});
  }
  table.print(std::cout,
              std::string("\n") + fmt_percent(stragglers, 0) +
                  " of nodes slowed " + fmt_fixed(slowdown, 1) +
                  "x (FIFO, wl1, EC2 profile)");
  std::cout << "\nExpected: stragglers inflate GMTT well beyond the clean "
               "cluster. Speculation recovers part of the\ntail latency — "
               "the rest is cluster *capacity* lost to slow nodes, which no "
               "backup task restores.\nDARE composes: its locality gains are "
               "orthogonal to the straggler mitigation.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv,
                          {{"jobs", "nodes", "progress", "seed", "slowdown",
                            "stragglers"}},
                          dare::run);
}
