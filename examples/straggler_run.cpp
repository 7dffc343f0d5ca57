// Straggler demo: the same workload on a quiet cluster, on one with
// degraded-mode nodes and heavy-tailed task inflation, and then with each
// mitigation armed in turn — speculation, budgeted task cloning, and
// cloning plus progress-rate straggler detection (which also sidelines
// detected-slow nodes from launches and read/repair source selection).
//
// Usage: straggler_run [jobs=N] [nodes=N]
//                      [plus every cluster override but stragglers=,
//                       cloning= and detect_stragglers=, which the demo
//                       varies itself: tail_prob=, clone_budget=, ...]
#include <iostream>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 300);

  const auto wl = cluster::standard_wl1(nodes, jobs);

  // Default straggler climate; every knob the variants below do not set is
  // overridable from the CLI.
  auto base = cluster::paper_defaults(net::ec2_profile(nodes),
                                      cluster::SchedulerKind::kFair,
                                      cluster::PolicyKind::kElephantTrap);
  base.stragglers.enabled = true;
  base.stragglers.degrade_mtbf_s = 180.0;
  base.stragglers.degrade_duration_s = 45.0;
  base.stragglers.compute_slowdown = 4.0;
  base.stragglers.disk_slowdown = 2.5;
  base.stragglers.rack_correlation = 0.2;
  base.stragglers.tail_prob = 0.1;
  base.stragglers.tail_alpha = 1.2;
  base.stragglers.tail_cap = 10.0;
  base.clone_budget_fraction = 0.15;
  base.straggler_detect_min_samples = 2;
  base = cluster::apply_overrides(base, cfg);

  struct Variant {
    const char* name;
    bool stragglers;
    bool speculation;
    bool cloning;
    bool detection;
  };
  const Variant variants[] = {
      {"quiet cluster", false, false, false, false},
      {"stragglers, no mitigation", true, false, false, false},
      {"stragglers + speculation", true, true, false, false},
      {"stragglers + cloning", true, false, true, false},
      {"stragglers + cloning + detection", true, false, true, true},
  };

  AsciiTable table({"configuration", "GMTT (s)", "locality", "degrades",
                    "inflated", "detected", "clones", "clone wins",
                    "wasted (s)", "spec launched", "failed jobs"});
  for (const auto& v : variants) {
    auto options = base;
    options.stragglers.enabled = v.stragglers;
    options.enable_speculation = v.speculation;
    options.enable_task_cloning = v.cloning;
    options.enable_straggler_detection = v.detection;
    const auto result = cluster::run_once(options, wl);
    table.add_row({v.name, fmt_fixed(result.gmtt_s, 2),
                   fmt_percent(result.locality),
                   std::to_string(result.degraded_onsets),
                   std::to_string(result.tail_inflations),
                   std::to_string(result.stragglers_detected),
                   std::to_string(result.clones_launched),
                   std::to_string(result.clone_wins),
                   fmt_fixed(result.clone_wasted_work_s, 1),
                   std::to_string(result.speculative_launched),
                   std::to_string(result.failed_jobs)});
  }
  table.print(
      std::cout,
      "Straggler demo — " + std::to_string(nodes) + "-node cluster, " +
          std::string(cluster::policy_name(base.policy)) +
          " policy, degrade MTBF " +
          std::to_string(static_cast<int>(base.stragglers.degrade_mtbf_s)) +
          " s, tail P(inflate) " +
          fmt_fixed(base.stragglers.tail_prob, 2));
  std::cout
      << "\nDegraded nodes run compute and disk slower for a while; a "
         "fraction of tasks draw a\nheavy-tailed (bounded-Pareto) service "
         "inflation. Speculation reacts to observed\nstraggling; cloning "
         "hedges launches up front inside a slot budget (first finisher\n"
         "wins, the loser is killed); detection sidelines persistently slow "
         "nodes from new\nlaunches and read/repair sources until a backoff "
         "expires.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv,
      {dare::cluster::override_keys_for(
          {"jobs"}, {"cloning", "detect_stragglers", "stragglers"})},
      run);
}
