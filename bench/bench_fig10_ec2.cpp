// Figure 10: performance of DARE in a virtualized 100-node EC2 cluster
// (wl1, 500 jobs): (a) data locality, (b) normalized GMTT, (c) mean
// slowdown, for vanilla / LRU / ElephantTrap under FIFO and Fair.
//
// The headline contrast with Fig. 7: the EC2 profile's network/disk
// bandwidth ratio is lower, so the same locality gain buys a larger
// improvement in turnaround and slowdown (paper: 19 % and 25 %).
//
// Runs on cluster::ExperimentFarm: each grid cell is a self-contained,
// keyed work item, so `journal=<path>` makes the sweep resumable after an
// interruption (completed cells replay from the journal bit-identically).
//
// Overrides: jobs=<n> nodes=<n> seed=<n> seeds=<n> journal=<path>
//            threads=<n> progress=1 csv=<prefix>
#include "bench_common.h"
#include "cluster/farm.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 500);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 100);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
  const auto replications = cfg.get_count<std::size_t>("seeds", 3);

  bench::banner("Fig. 10 — job performance in a 100-node EC2 cluster (wl1)",
                "DARE (CLUSTER'11) Fig. 10a/10b/10c");

  const std::vector<std::pair<SchedulerKind, std::string>> schedulers = {
      {SchedulerKind::kFifo, "FIFO"}, {SchedulerKind::kFair, "Fair"}};
  const std::vector<PolicyKind> policies = {PolicyKind::kVanilla,
                                            PolicyKind::kGreedyLru,
                                            PolicyKind::kElephantTrap};

  // One self-contained farm item per cell replication; workload and
  // cluster seeds follow the original scheme (wl1: seed+10r, cluster:
  // seed+100r), so every policy/scheduler cell replays the identical job
  // stream.
  const std::vector<std::string> policy_keys = {"vanilla", "lru",
                                                "elephant-trap"};
  std::vector<Config> items;
  for (const auto& [sched, name] : schedulers) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t r = 0; r < replications; ++r) {
        Config item;
        item.set("profile", "ec2");
        item.set("nodes", std::to_string(nodes));
        item.set("scheduler", sched == SchedulerKind::kFifo ? "fifo" : "fair");
        item.set("policy", policy_keys[p]);
        item.set("seed", std::to_string(seed + 100 * r));
        item.set("workload", "wl1");
        item.set("jobs", std::to_string(jobs));
        item.set("wl_seed", std::to_string(seed + 10 * r));
        items.push_back(std::move(item));
      }
    }
  }
  cluster::ExperimentFarm::Options farm_options;
  farm_options.threads = cfg.get_count<std::size_t>("threads", 0);
  farm_options.journal_path = cfg.get_string("journal", "");
  farm_options.progress = bench::progress_meter(cfg);
  cluster::ExperimentFarm farm(std::move(items), farm_options);
  const auto results = farm.run();

  struct Cell {
    double locality = 0.0;
    double gmtt_s = 0.0;
    double slowdown = 0.0;
  };
  std::vector<Cell> cells;
  std::size_t idx = 0;
  for (std::size_t cell = 0; cell < schedulers.size() * policies.size();
       ++cell) {
    Cell c;
    for (std::size_t r = 0; r < replications; ++r) {
      // metric() round-trips through the farm row's shortest-form decimal
      // rendering, which parses back to the exact double — cell averages
      // are bit-identical whether the item ran fresh or replayed.
      c.locality += results[idx].metric("locality");
      c.gmtt_s += results[idx].metric("gmtt_s");
      c.slowdown += results[idx].metric("mean_slowdown");
      ++idx;
    }
    c.locality /= static_cast<double>(replications);
    c.gmtt_s /= static_cast<double>(replications);
    c.slowdown /= static_cast<double>(replications);
    cells.push_back(c);
  }

  AsciiTable locality({"scheduler", "vanilla", "dare-lru",
                       "dare-elephanttrap"});
  AsciiTable gmtt({"scheduler", "vanilla", "dare-lru", "dare-elephanttrap",
                   "(abs vanilla, s)"});
  AsciiTable slowdown({"scheduler", "vanilla", "dare-lru",
                       "dare-elephanttrap"});
  for (std::size_t s = 0; s < schedulers.size(); ++s) {
    const auto& vanilla = cells[s * 3];
    const auto& lru = cells[s * 3 + 1];
    const auto& trap = cells[s * 3 + 2];
    const std::string& name = schedulers[s].second;
    locality.add_row({name, fmt_fixed(vanilla.locality, 3),
                      fmt_fixed(lru.locality, 3),
                      fmt_fixed(trap.locality, 3)});
    gmtt.add_row({name, "1.000", fmt_fixed(lru.gmtt_s / vanilla.gmtt_s, 3),
                  fmt_fixed(trap.gmtt_s / vanilla.gmtt_s, 3),
                  fmt_fixed(vanilla.gmtt_s, 2)});
    slowdown.add_row({name, fmt_fixed(vanilla.slowdown, 3),
                      fmt_fixed(lru.slowdown, 3),
                      fmt_fixed(trap.slowdown, 3)});
  }
  locality.print(std::cout,
                 "\n(10a) Data locality of jobs (higher is better)");
  gmtt.print(std::cout,
             "\n(10b) GMTT normalized to vanilla (lower is better)");
  slowdown.print(std::cout, "\n(10c) Mean slowdown (lower is better)");
  bench::maybe_write_csv(cfg, "fig10a_locality", locality);
  bench::maybe_write_csv(cfg, "fig10b_gmtt", gmtt);
  bench::maybe_write_csv(cfg, "fig10c_slowdown", slowdown);
  std::cout << "\nPaper shape: locality gains comparable to CCT, but GMTT "
               "improves ~19% and slowdown ~25% — more than on CCT — because "
               "EC2's network/disk bandwidth ratio is lower.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv,
                          {{"csv", "jobs", "journal", "nodes", "progress",
                            "seed", "seeds", "threads"}},
                          dare::run);
}
