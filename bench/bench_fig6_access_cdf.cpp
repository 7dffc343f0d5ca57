// Figure 6: the file access distribution (CDF over popularity ranks) used
// as input for the cluster experiments.
//
// Overrides: zipf=<s>
#include "bench_common.h"
#include "workload/workload.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  const double zipf_s = cfg.get_double("zipf", 1.1);

  bench::banner("Fig. 6 — access pattern (CDF) used in the experiments",
                "DARE (CLUSTER'11) Fig. 6");

  workload::CatalogSpec catalog;
  const auto popularity = workload::small_file_popularity(catalog, zipf_s);

  AsciiTable table({"file rank", "cumulative access probability"});
  for (std::size_t rank : {1u, 2u, 5u, 10u, 20u, 40u, 60u, 80u, 100u}) {
    if (rank > popularity.size()) break;
    table.add_row({std::to_string(rank),
                   fmt_fixed(popularity.cdf(rank - 1), 3)});
  }
  table.print(std::cout, "\nCDF over file popularity ranks (Zipf s = " +
                             fmt_fixed(zipf_s, 2) + ", " +
                             std::to_string(popularity.size()) + " files)");
  std::cout << "\nPaper shape: concave CDF reaching 1.0 near rank ~120; the "
               "top ~20 files hold most of the probability mass.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv, {{"zipf"}}, dare::run);
}
