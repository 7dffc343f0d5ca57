// Figure 4: for each "big file" (the most popular files jointly holding 80 %
// of accesses), the smallest number of consecutive one-hour slots containing
// 80 % of that file's accesses — (a) files weighted equally, (b) weighted by
// access count. The paper's shape: most files bursty (small windows), plus a
// spike near the full week for daily-accessed files.
//
// Overrides: files=<n> accesses=<n> seed=<n>
#include "analysis/trace_analysis.h"
#include "bench_common.h"

namespace dare {
namespace {

void print_distribution(const analysis::WindowDistribution& dist,
                        const std::string& title) {
  AsciiTable table({"window size (hours)", "fraction of files"});
  // Aggregate into the bands the log-scale plot makes visible.
  const std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
      bands = {{"1", {1, 1}},          {"2-3", {2, 3}},
               {"4-8", {4, 8}},        {"9-24", {9, 24}},
               {"25-72", {25, 72}},    {"73-120", {73, 120}},
               {"121-168", {121, 168}}};
  for (const auto& [label, range] : bands) {
    double total = 0.0;
    for (std::size_t w = range.first;
         w <= range.second && w < dist.fraction.size(); ++w) {
      total += dist.fraction[w];
    }
    table.add_row({label, fmt_fixed(total, 3)});
  }
  table.print(std::cout, title);
  std::cout << "(files considered: " << dist.files_considered << ")\n";
}

int run(const Config& cfg) {
  workload::YahooTraceOptions opts;
  opts.files = cfg.get_count<std::size_t>("files", 2000);
  opts.total_accesses = cfg.get_count<std::size_t>("accesses", 200000);
  opts.seed = cfg.get_count<std::uint64_t>("seed", 7);

  bench::banner(
      "Fig. 4 — size of the smallest window holding 80% of each file's "
      "accesses (full week)",
      "DARE (CLUSTER'11) Fig. 4a/4b");

  const auto trace = workload::generate_yahoo_trace(opts);

  analysis::WindowOptions plain;
  print_distribution(analysis::burst_window_distribution(trace, plain),
                     "\n(4a) All accesses weighted equally");

  analysis::WindowOptions weighted;
  weighted.weight_by_accesses = true;
  print_distribution(analysis::burst_window_distribution(trace, weighted),
                     "\n(4b) Each file weighted by its number of accesses");

  std::cout << "\nPaper shape: bimodal — mass at ~1 hour (bursty files) and "
               "a spike near 121 hours (files accessed daily all week).\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"accesses", "files", "seed"}}, dare::run);
}
