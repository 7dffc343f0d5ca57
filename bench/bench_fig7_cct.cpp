// Figure 7 (a, b, c): data locality, normalized GMTT, and mean slowdown on
// the dedicated 20-node CCT cluster, for FIFO and Fair schedulers, workloads
// wl1 and wl2, and three replication configurations: vanilla Hadoop,
// DARE/greedy-LRU, and DARE/ElephantTrap (p=0.3, threshold=1, budget=0.2).
// Each cell is averaged over `seeds` independent replications (workload and
// cluster seeds both vary).
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
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
  const auto replications = cfg.get_count<std::size_t>("seeds", 3);

  bench::banner("Fig. 7 — job performance in the 20-node CCT cluster",
                "DARE (CLUSTER'11) Fig. 7a/7b/7c");

  const std::vector<std::pair<SchedulerKind, std::string>> schedulers = {
      {SchedulerKind::kFifo, "FIFO"}, {SchedulerKind::kFair, "Fair"}};
  const std::vector<std::pair<PolicyKind, std::string>> policies = {
      {PolicyKind::kVanilla, "Vanilla Hadoop"},
      {PolicyKind::kGreedyLru, "DARE, LRU eviction"},
      {PolicyKind::kElephantTrap, "DARE, ElephantTrap"}};

  // Run the full 2x2x3xseeds grid on the experiment farm: one
  // self-contained item per cell replication. Workload seeds follow the
  // original scheme (wl1: seed+10r, wl2: seed+10r+1, cluster: seed+100r),
  // so every policy/scheduler cell replays the identical job stream.
  const std::vector<std::string> policy_keys = {"vanilla", "lru",
                                                "elephant-trap"};
  std::vector<Config> items;
  for (std::size_t w = 0; w < 2; ++w) {
    for (const auto& [sched, sched_name] : schedulers) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::size_t r = 0; r < replications; ++r) {
          Config item;
          item.set("profile", "cct");
          item.set("nodes", std::to_string(nodes));
          item.set("scheduler",
                   sched == SchedulerKind::kFifo ? "fifo" : "fair");
          item.set("policy", policy_keys[p]);
          item.set("seed", std::to_string(seed + 100 * r));
          item.set("workload", w == 0 ? "wl1" : "wl2");
          item.set("jobs", std::to_string(jobs));
          item.set("wl_seed", std::to_string(seed + 10 * r + w));
          items.push_back(std::move(item));
        }
      }
    }
  }
  cluster::ExperimentFarm::Options farm_options;
  farm_options.threads = cfg.get_count<std::size_t>("threads", 0);
  farm_options.journal_path = cfg.get_string("journal", "");
  farm_options.progress = bench::progress_meter(cfg);
  cluster::ExperimentFarm farm(std::move(items), farm_options);
  const auto results = farm.run();

  // Seed-averaged aggregates per cell.
  struct Cell {
    double locality = 0.0;
    double gmtt_s = 0.0;
    double slowdown = 0.0;
  };
  std::vector<Cell> cells;
  std::size_t idx = 0;
  for (std::size_t cell = 0; cell < 2 * 2 * 3; ++cell) {
    Cell c;
    for (std::size_t r = 0; r < replications; ++r) {
      // metric() round-trips through the farm row's shortest-form decimal
      // rendering, which parses back to the exact double — cell averages
      // are bit-identical whether the item ran fresh or replayed from a
      // journal.
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

  // Fig. 7a: data locality; 7b: GMTT normalized to vanilla; 7c: slowdown.
  AsciiTable locality({"scheduler/workload", "vanilla", "dare-lru",
                       "dare-elephanttrap"});
  AsciiTable gmtt({"scheduler/workload", "vanilla", "dare-lru",
                   "dare-elephanttrap", "(abs vanilla, s)"});
  AsciiTable slowdown({"scheduler/workload", "vanilla", "dare-lru",
                       "dare-elephanttrap"});

  idx = 0;
  for (const std::string wl_name : {"wl1", "wl2"}) {
    for (const auto& [sched, sched_name] : schedulers) {
      const auto& vanilla = cells[idx];
      const auto& lru = cells[idx + 1];
      const auto& trap = cells[idx + 2];
      idx += 3;
      const std::string row = sched_name + " (" + wl_name + ")";
      locality.add_row({row, fmt_fixed(vanilla.locality, 3),
                        fmt_fixed(lru.locality, 3),
                        fmt_fixed(trap.locality, 3)});
      gmtt.add_row({row, "1.000",
                    fmt_fixed(lru.gmtt_s / vanilla.gmtt_s, 3),
                    fmt_fixed(trap.gmtt_s / vanilla.gmtt_s, 3),
                    fmt_fixed(vanilla.gmtt_s, 2)});
      slowdown.add_row({row, fmt_fixed(vanilla.slowdown, 3),
                        fmt_fixed(lru.slowdown, 3),
                        fmt_fixed(trap.slowdown, 3)});
    }
  }
  locality.print(std::cout, "\n(7a) Data locality of jobs (higher is better)");
  gmtt.print(std::cout,
             "\n(7b) Geometric mean turnaround time, normalized to vanilla "
             "(lower is better)");
  slowdown.print(std::cout, "\n(7c) Mean slowdown (lower is better)");
  bench::maybe_write_csv(cfg, "fig7a_locality", locality);
  bench::maybe_write_csv(cfg, "fig7b_gmtt", gmtt);
  bench::maybe_write_csv(cfg, "fig7c_slowdown", slowdown);
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
