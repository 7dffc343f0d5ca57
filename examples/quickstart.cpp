// Quickstart: the smallest complete DARE experiment.
//
// Builds a 20-node dedicated cluster (1 master + 19 workers), generates a
// 200-job heavy-tailed workload, and runs it twice — once with vanilla
// Hadoop replication and once with DARE's ElephantTrap policy — printing
// the locality and turnaround improvement.
//
// Usage: quickstart [jobs=N] [nodes=N] [p=0.3] [threshold=1] [budget=0.2]
#include <iostream>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;

  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 200);

  // 1. Synthesize a workload: a long stream of small jobs whose input files
  //    follow a heavy-tailed popularity distribution (the paper's wl1).
  const workload::Workload wl = cluster::standard_wl1(nodes, jobs);

  // 2. Configure the cluster. `paper_defaults` gives the paper's standard
  //    DARE parameters (p=0.3, threshold=1, budget=0.2); individual knobs
  //    can be overridden from the command line.
  auto vanilla = cluster::paper_defaults(net::cct_profile(nodes),
                                         cluster::SchedulerKind::kFifo,
                                         cluster::PolicyKind::kVanilla);
  auto dare = cluster::paper_defaults(net::cct_profile(nodes),
                                      cluster::SchedulerKind::kFifo,
                                      cluster::PolicyKind::kElephantTrap);
  dare.trap.p = cfg.get_double("p", dare.trap.p);
  dare.trap.threshold = cfg.get_count("threshold", dare.trap.threshold);
  dare.budget_fraction = cfg.get_double("budget", dare.budget_fraction);

  // 3. Run both configurations on the same workload.
  const auto before = cluster::run_once(vanilla, wl);
  const auto after = cluster::run_once(dare, wl);

  // 4. Report.
  AsciiTable table({"metric", "vanilla Hadoop", "with DARE"});
  table.add_row({"map-task data locality", fmt_percent(before.locality),
                 fmt_percent(after.locality)});
  table.add_row({"geometric mean turnaround",
                 fmt_fixed(before.gmtt_s, 2) + " s",
                 fmt_fixed(after.gmtt_s, 2) + " s"});
  table.add_row({"mean slowdown", fmt_fixed(before.mean_slowdown, 2),
                 fmt_fixed(after.mean_slowdown, 2)});
  table.add_row({"dynamic replicas created", "0",
                 std::to_string(after.dynamic_replicas_created)});
  table.print(std::cout,
              "DARE quickstart — " + std::to_string(nodes) + "-node cluster, " +
                  std::to_string(jobs) + " jobs (FIFO scheduler)");
  std::cout << "\nLocality improved "
            << fmt_fixed(after.locality / before.locality, 1)
            << "x; turnaround reduced "
            << fmt_percent(1.0 - after.gmtt_s / before.gmtt_s)
            << ". Try fair scheduling with the facebook_workload example.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"budget", "jobs", "nodes", "p", "threshold"}}, run);
}
