// Replaying a SWIM-format trace (the format the paper's workloads were
// published in). If no trace file is given, the example writes a small
// synthetic trace in SWIM format first, so it is runnable out of the box;
// point `trace=` at a real SWIM file (e.g. the published Facebook samples)
// to replay production workloads.
//
// Usage: swim_replay [trace=FILE] [first=N] [count=N] [timescale=X]
//                    [plus any cluster override: policy=, scheduler=, ...]
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/table.h"
#include "workload/swim_import.h"

namespace {

using namespace dare;

/// Write a plausible SWIM-style sample: a stream of small jobs with
/// repeating input sizes plus periodic large scans.
std::string synthesize_swim_sample(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  out << "# synthetic trace in SWIM format: name submit interarrival "
         "input_bytes shuffle_bytes output_bytes\n";
  double t = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double gap = rng.exponential(1.0 / 6.0);
    t += gap;
    const bool large = i % 25 == 24;
    const Bytes input =
        large ? static_cast<Bytes>(rng.uniform_int(std::int64_t{12},
                                                   std::int64_t{30})) *
                    128 * kMiB
              : static_cast<Bytes>(rng.uniform_int(std::int64_t{1},
                                                   std::int64_t{4})) *
                    128 * kMiB;
    const Bytes shuffle = input / 16;
    const Bytes output = input / 32;
    out << "job" << i << ' ' << t << ' ' << gap << ' ' << input << ' '
        << shuffle << ' ' << output << '\n';
  }
  return out.str();
}

int run(const Config& cfg) {
  workload::SwimImportOptions import_opts;
  import_opts.first_job = cfg.get_count<std::size_t>("first", 0);
  import_opts.num_jobs = cfg.get_count<std::size_t>("count", 0);
  import_opts.time_scale = cfg.get_double("timescale", 1.0);

  workload::Workload wl;
  const std::string trace = cfg.get_string("trace", "");
  if (!trace.empty()) {
    std::ifstream in(trace);
    if (!in) throw std::runtime_error("cannot open SWIM trace: " + trace);
    wl = workload::import_swim(in, import_opts);
    std::cout << "Imported " << wl.jobs.size() << " jobs / "
              << wl.catalog.size() << " distinct input files from " << trace
              << "\n\n";
  } else {
    const std::string sample = synthesize_swim_sample(300, 99);
    wl = workload::import_swim_string(sample, import_opts);
    std::cout << "No trace= given; synthesized a 300-row SWIM-format sample "
                 "("
              << wl.catalog.size() << " distinct input sizes).\n\n";
  }

  auto options = cluster::apply_overrides(
      cluster::paper_defaults(net::cct_profile(20),
                              cluster::SchedulerKind::kFifo,
                              cluster::PolicyKind::kElephantTrap),
      cfg);
  const auto vanilla_options = [&] {
    auto o = options;
    o.policy = cluster::PolicyKind::kVanilla;
    return o;
  }();

  const auto vanilla = cluster::run_once(vanilla_options, wl);
  const auto dare = cluster::run_once(options, wl);

  AsciiTable table({"metric", "vanilla", cluster::policy_name(options.policy)});
  table.add_row({"node locality", fmt_percent(vanilla.locality),
                 fmt_percent(dare.locality)});
  table.add_row({"rack locality", fmt_percent(vanilla.rack_locality),
                 fmt_percent(dare.rack_locality)});
  table.add_row({"GMTT", fmt_fixed(vanilla.gmtt_s, 2) + " s",
                 fmt_fixed(dare.gmtt_s, 2) + " s"});
  table.add_row({"mean slowdown", fmt_fixed(vanilla.mean_slowdown, 2),
                 fmt_fixed(dare.mean_slowdown, 2)});
  table.add_row({"blocks created/job", "0.00",
                 fmt_fixed(dare.blocks_created_per_job, 2)});
  table.print(std::cout, "SWIM replay on " +
                             std::to_string(options.profile.topology.nodes) +
                             " nodes (" +
                             std::string(cluster::scheduler_name(
                                 options.scheduler)) +
                             " scheduler)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv,
      {cluster::override_keys_for({"count", "first", "timescale", "trace"})},
      run);
}
