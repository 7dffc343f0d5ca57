// Figure 2: number of accesses per file versus file rank (log-log), plain
// and weighted by the number of 128 MB blocks per file, over a synthetic
// Yahoo-style HDFS audit trace.
//
// Overrides: files=<n> accesses=<n> seed=<n>
#include <cmath>

#include "analysis/trace_analysis.h"
#include "bench_common.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  workload::YahooTraceOptions opts;
  opts.files = cfg.get_count<std::size_t>("files", 2000);
  opts.total_accesses = cfg.get_count<std::size_t>("accesses", 200000);
  opts.seed = cfg.get_count<std::uint64_t>("seed", 7);

  bench::banner("Fig. 2 — file popularity in a production-style trace",
                "DARE (CLUSTER'11) Fig. 2");

  const auto trace = workload::generate_yahoo_trace(opts);
  const auto plain = analysis::popularity_ranking(trace);
  const auto weighted = analysis::weighted_popularity_ranking(trace);

  AsciiTable table({"file rank", "accesses", "accesses x blocks"});
  for (std::size_t rank : {1u, 2u, 5u, 10u, 20u, 50u, 100u, 200u, 500u,
                           1000u, 1999u}) {
    if (rank > plain.size()) break;
    table.add_row({std::to_string(rank),
                   std::to_string(plain[rank - 1].accesses),
                   std::to_string(weighted[rank - 1].weighted())});
  }
  table.print(std::cout, "\nAccesses per file by popularity rank (log-log "
                         "series; sampled ranks)");

  const double head = static_cast<double>(plain.front().accesses);
  const double tail = static_cast<double>(plain.back().accesses);
  std::cout << "\nHeavy tail: rank-1 file has " << head
            << " accesses, rank-" << plain.size() << " has " << tail
            << " (" << fmt_fixed(head / std::max(tail, 1.0), 0)
            << "x, ~" << fmt_fixed(std::log10(head / std::max(tail, 1.0)), 1)
            << " decades; paper spans ~4 decades).\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"accesses", "files", "seed"}}, dare::run);
}
