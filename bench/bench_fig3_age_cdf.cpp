// Figure 3: cumulative distribution of file age at time of access.
// Paper landmarks: 50 % of accesses by ~9 h 45 m of age, ~80 % within the
// first day, high temporal correlation overall.
//
// Overrides: files=<n> accesses=<n> seed=<n>
#include "analysis/trace_analysis.h"
#include "bench_common.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  workload::YahooTraceOptions opts;
  opts.files = cfg.get_count<std::size_t>("files", 2000);
  opts.total_accesses = cfg.get_count<std::size_t>("accesses", 200000);
  opts.seed = cfg.get_count<std::uint64_t>("seed", 7);

  bench::banner("Fig. 3 — CDF of file age at time of access",
                "DARE (CLUSTER'11) Fig. 3");

  const auto trace = workload::generate_yahoo_trace(opts);
  const auto cdf = analysis::age_at_access_cdf(trace);

  AsciiTable table({"file age t", "fraction of accesses at age < t"});
  const std::vector<std::pair<std::string, double>> landmarks = {
      {"1 minute", 60.0},
      {"1 hour", 3600.0},
      {"6 hours", 6 * 3600.0},
      {"9h45m", 9.75 * 3600.0},
      {"1 day", 24 * 3600.0},
      {"2 days", 48 * 3600.0},
      {"1 week", 7 * 24 * 3600.0}};
  for (const auto& [label, seconds] : landmarks) {
    table.add_row({label,
                   fmt_fixed(cdf.fraction_at_or_below(seconds), 3)});
  }
  table.print(std::cout, "\nCDF of age at access");
  std::cout << "\nMedian age: " << fmt_fixed(cdf.quantile(0.5) / 3600.0, 2)
            << " hours (paper: ~9.75 h); fraction within first day: "
            << fmt_percent(cdf.fraction_at_or_below(24 * 3600.0), 1)
            << " (paper: ~80%).\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"accesses", "files", "seed"}}, dare::run);
}
