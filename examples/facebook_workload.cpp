// Replay of SWIM-style Facebook workloads under every scheduler x policy
// combination — the paper's primary experiment (Section V-B/V-C), with the
// workload optionally persisted to / loaded from a trace file so runs are
// reproducible and editable.
//
// Usage:
//   facebook_workload [wl=wl1|wl2] [jobs=N] [nodes=N] [seed=N]
//                     [save=trace.txt] [load=trace.txt]
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"
#include "workload/trace_io.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;

  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 500);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
  const std::string which = cfg.get_string("wl", "wl2");

  // Obtain the workload: either load a previously saved trace or
  // synthesize one.
  workload::Workload wl;
  const std::string load = cfg.get_string("load", "");
  if (!load.empty()) {
    std::ifstream in(load);
    if (!in) throw std::runtime_error("cannot open trace file: " + load);
    wl = workload::read_workload(in);
    std::cout << "Loaded " << wl.jobs.size() << " jobs from " << load << "\n";
  } else if (which == "wl1") {
    wl = cluster::standard_wl1(nodes, jobs, seed);
  } else if (which == "wl2") {
    wl = cluster::standard_wl2(nodes, jobs, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + which +
                                "' (use wl1 or wl2)");
  }

  const std::string save = cfg.get_string("save", "");
  if (!save.empty()) {
    std::ofstream out(save);
    workload::write_workload(out, wl);
    std::cout << "Saved workload to " << save << "\n";
  }

  // The full scheduler x policy grid.
  AsciiTable table({"scheduler", "policy", "locality", "GMTT (s)",
                    "slowdown", "blocks/job"});
  for (const auto sched :
       {cluster::SchedulerKind::kFifo, cluster::SchedulerKind::kFair}) {
    for (const auto policy :
         {cluster::PolicyKind::kVanilla, cluster::PolicyKind::kGreedyLru,
          cluster::PolicyKind::kGreedyLfu,
          cluster::PolicyKind::kElephantTrap}) {
      const auto result = cluster::run_once(
          cluster::paper_defaults(net::cct_profile(nodes), sched, policy,
                                  seed),
          wl);
      table.add_row({cluster::scheduler_name(sched),
                     cluster::policy_name(policy),
                     fmt_percent(result.locality),
                     fmt_fixed(result.gmtt_s, 2),
                     fmt_fixed(result.mean_slowdown, 2),
                     fmt_fixed(result.blocks_created_per_job, 2)});
    }
  }
  table.print(std::cout, "Facebook-style workload '" + wl.name + "' on a " +
                             std::to_string(nodes) + "-node cluster");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"jobs", "load", "nodes", "save", "seed", "wl"}}, run);
}
