// Table I: all-to-all ping round-trip times for the dedicated CCT cluster
// and the virtualized EC2 cluster (min / mean / max / standard deviation).
//
// Overrides: nodes=<n> pings=<n> seed=<n>
#include "bench_common.h"
#include "common/stats.h"
#include "net/measurement.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto pings = cfg.get_count<std::size_t>("pings", 5);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 1);

  bench::banner("Table I — all-to-all ping round-trip times (ms)",
                "DARE (CLUSTER'11) Table I");

  AsciiTable table({"cluster", "min", "mean", "max", "std. deviation"});
  for (const auto& profile : {net::cct_profile(nodes),
                              net::ec2_profile(nodes)}) {
    Rng rng(seed);
    net::Topology topo(profile.topology, rng);
    net::Network network(profile, topo, rng);
    const auto samples = net::ping_all_pairs(network, pings);
    const auto row = summarize(profile.name, samples);
    table.add_row({profile.name == "cct" ? "CCT" : "EC2",
                   fmt_fixed(row.min, 2), fmt_fixed(row.mean, 2),
                   fmt_fixed(row.max, 2), fmt_fixed(row.stddev, 2)});
  }
  table.print(std::cout, "\nRTT in milliseconds");
  std::cout << "\nPaper reference: CCT 0.01/0.18/2.17/0.34, "
               "EC2 0.02/0.77/75.1/3.36\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv, {{"nodes", "pings", "seed"}}, dare::run);
}
