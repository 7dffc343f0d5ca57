// Observability demo: run one workload with the structured tracer and the
// phase profiler attached, then export everything a timeline viewer or a
// notebook needs:
//   trace.json      — Chrome trace-event JSON; open in chrome://tracing or
//                     https://ui.perfetto.dev (one track per worker node,
//                     plus scheduler and namenode tracks);
//   events.csv      — every event as one flat CSV row;
//   timeseries.csv  — periodic cluster gauges (backlog, slot utilization,
//                     budget occupancy, popularity cv);
// and prints the per-phase CPU attribution table.
//
// Tracing only observes: the run's metrics fingerprint is identical with
// the tracer attached or not (tested by test_trace_determinism).
//
// Usage: trace_run [jobs=N] [nodes=N] [out=trace.json] [churn=0|1]
//                  [sample_s=1.0 gauge-sampling period, 0 disables]
//                  [plus cluster overrides: policy=, scheduler=, seed=, ...;
//                   they win over the churn=1 preset]
#include <fstream>
#include <iostream>

#include "cluster/experiment.h"
#include "common/config.h"
#include "metrics/run_metrics.h"
#include "obs/phase_profiler.h"
#include "obs/trace_collector.h"
#include "obs/trace_export.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 120);
  const std::string out = cfg.get_string("out", "trace.json");

  const auto wl = cluster::standard_wl1(nodes, jobs);
  auto options = cluster::paper_defaults(net::cct_profile(nodes),
                                         cluster::SchedulerKind::kFair,
                                         cluster::PolicyKind::kElephantTrap);
  // The churn preset comes first, so every override wins over it.
  if (cfg.get_int("churn", 0) != 0) {
    options.faults.enabled = true;
    options.faults.mtbf_s = 120.0;
    options.faults.mttr_s = 30.0;
    options.faults.min_live_workers = 4;
  }
  options = cluster::apply_overrides(options, cfg);
  options.trace_sample_interval = from_seconds(cfg.get_double("sample_s", 1.0));

  obs::TraceCollector tracer;
  obs::PhaseProfiler profiler;
  options.tracer = &tracer;
  options.profiler = &profiler;

  const auto result = cluster::run_once(options, wl);

  std::ofstream json(out, std::ios::binary);
  obs::write_chrome_trace(tracer, json);
  std::ofstream csv("events.csv", std::ios::binary);
  obs::write_events_csv(tracer, csv);
  std::ofstream series("timeseries.csv", std::ios::binary);
  tracer.series().write_csv(series);

  std::cout << "ran " << jobs << " jobs on " << nodes
            << " nodes: makespan " << to_seconds(result.makespan)
            << " s, GMTT " << result.gmtt_s << " s, locality "
            << result.locality * 100.0 << " %\n"
            << "collected " << tracer.size() << " events, "
            << tracer.series().size() << " gauge samples\n"
            << "wrote " << out << " (load in chrome://tracing or "
            << "ui.perfetto.dev), events.csv, timeseries.csv\n\n";
  profiler.write_report(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv,
      {dare::cluster::override_keys_for({"churn", "jobs", "out", "sample_s"})},
      run);
}
