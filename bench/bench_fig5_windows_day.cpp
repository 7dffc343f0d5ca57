// Figure 5: the Fig. 4 window analysis restricted to a single day (day 2 of
// the trace). The paper's shape: within one day, the significant accesses of
// most files lie within about one hour.
//
// Overrides: files=<n> accesses=<n> seed=<n> day=<n>
#include "analysis/trace_analysis.h"
#include "bench_common.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  workload::YahooTraceOptions opts;
  opts.files = cfg.get_count<std::size_t>("files", 2000);
  opts.total_accesses = cfg.get_count<std::size_t>("accesses", 200000);
  opts.seed = cfg.get_count<std::uint64_t>("seed", 7);
  const auto day = cfg.get_count<std::int64_t>("day", 2);

  bench::banner(
      "Fig. 5 — 80% windows within a single day (day " +
          std::to_string(day) + ")",
      "DARE (CLUSTER'11) Fig. 5a/5b");

  const auto trace = workload::generate_yahoo_trace(opts);

  const SimTime day_begin = from_seconds(static_cast<double>(day - 1) *
                                         24 * 3600.0);
  const SimTime day_end = from_seconds(static_cast<double>(day) * 24 * 3600.0);

  for (const bool weighted : {false, true}) {
    analysis::WindowOptions wopts;
    wopts.begin = day_begin;
    wopts.end = day_end;
    wopts.weight_by_accesses = weighted;
    const auto dist = analysis::burst_window_distribution(trace, wopts);

    AsciiTable table({"window size (hours)", "fraction of files"});
    for (std::size_t w = 1; w < dist.fraction.size() && w <= 24; ++w) {
      if (dist.fraction[w] > 0.0) {
        table.add_row({std::to_string(w), fmt_fixed(dist.fraction[w], 3)});
      }
    }
    table.print(std::cout,
                weighted
                    ? "\n(5b) Each file weighted by its number of accesses"
                    : "\n(5a) All accesses weighted equally");
    std::cout << "(files considered: " << dist.files_considered << ")\n";
  }
  std::cout << "\nPaper shape: within a day, most significant file accesses "
               "lie within one hour.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"accesses", "day", "files", "seed"}}, dare::run);
}
