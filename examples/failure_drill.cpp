// Failure drill: kill workers mid-run and watch the system recover —
// task re-execution, name-node re-replication, and the availability
// headroom DARE's extra replicas provide (paper Section IV-B).
//
// Usage: failure_drill [kills=2] [jobs=N] [nodes=N (> kills + 1)]
//                      [plus cluster overrides: policy=, scheduler=, ...]
#include <iostream>
#include <stdexcept>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 300);
  const auto kills = cfg.get_count<int>("kills", 2);
  // Each kill takes down at most one more worker, and the cluster cannot
  // fail its last live one.
  const std::size_t workers = nodes > 0 ? nodes - 1 : 0;
  if (kills > 0 && static_cast<std::size_t>(kills) >= workers) {
    throw std::invalid_argument(
        "kills=" + std::to_string(kills) + " needs at least " +
        std::to_string(kills + 1) + " workers (nodes >= " +
        std::to_string(kills + 2) + "), got nodes=" + std::to_string(nodes));
  }

  const auto wl = cluster::standard_wl1(nodes, jobs);

  auto base = cluster::apply_overrides(
      cluster::paper_defaults(net::cct_profile(nodes),
                              cluster::SchedulerKind::kFifo,
                              cluster::PolicyKind::kElephantTrap),
      cfg);
  // Spread the kills over the early run, hitting distinct workers.
  for (int k = 0; k < kills; ++k) {
    base.failures.push_back(
        {from_seconds(10.0 * (k + 1)),
         static_cast<NodeId>((3 + 5 * k) % workers)});
  }

  AsciiTable table({"configuration", "locality", "GMTT (s)",
                    "re-executions", "repaired", "lost blocks"});
  for (const bool with_failures : {false, true}) {
    auto options = base;
    if (!with_failures) options.failures.clear();
    const auto result = cluster::run_once(options, wl);
    table.add_row({with_failures
                       ? std::to_string(kills) + " node failures"
                       : "no failures",
                   fmt_percent(result.locality), fmt_fixed(result.gmtt_s, 2),
                   std::to_string(result.task_reexecutions),
                   std::to_string(result.rereplicated_blocks),
                   std::to_string(result.blocks_lost)});
  }
  table.print(std::cout,
              "Failure drill — " + std::to_string(nodes) + "-node cluster, " +
                  std::string(cluster::policy_name(base.policy)) + " policy");
  std::cout << "\nEvery job still completes: running tasks on the dead nodes "
               "are re-executed elsewhere, and\nthe name node re-replicates "
               "under-replicated blocks from the surviving copies.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {dare::cluster::override_keys_for({"jobs", "kills"})}, run);
}
