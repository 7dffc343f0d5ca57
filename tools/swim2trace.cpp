// swim2trace: convert a SWIM-format workload trace (the format the DARE
// paper's Facebook workloads were published in) to this repository's
// replayable trace format.
//
// Usage:
//   swim2trace <input> <output> [first=N] [count=N] [timescale=X]
//              [blocksize=BYTES] [maxblocks=N]
//
// The output can be replayed with examples/facebook_workload load=<file>.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/config.h"
#include "workload/swim_import.h"
#include "workload/trace_io.h"
#include "workload/workload_stats.h"

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;
  const std::string input = cfg.get_string("input", "");
  const std::string output = cfg.get_string("output", "");

  workload::SwimImportOptions opts;
  opts.first_job = cfg.get_count<std::size_t>("first", 0);
  opts.num_jobs = cfg.get_count<std::size_t>("count", 0);
  opts.time_scale = cfg.get_double("timescale", 1.0);
  opts.block_size = cfg.get_int("blocksize", opts.block_size);
  opts.max_blocks_per_job = cfg.get_count<std::size_t>("maxblocks", 512);

  std::ifstream in(input);
  if (!in) throw std::runtime_error("cannot open " + input);
  const workload::Workload wl = workload::import_swim(in, opts);

  std::ofstream out(output);
  if (!out) throw std::runtime_error("cannot open " + output + " for writing");
  workload::write_workload(out, wl);

  const auto stats = workload::characterize(wl);
  std::cout << "Converted " << stats.jobs << " jobs over " << stats.files
            << " distinct input files (" << stats.duration_s
            << " s of arrivals; mean " << stats.mean_maps
            << " maps/job, small-job fraction "
            << stats.small_job_fraction << ").\n"
            << "Replay with: examples/facebook_workload load=" << output
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv,
      {.keys = {"blocksize", "count", "first", "maxblocks", "timescale"},
       .positionals = {"input", "output"}},
      run);
}
