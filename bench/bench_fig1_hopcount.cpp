// Figure 1: distribution of the number of router hops between any two nodes
// of a 20-node EC2 allocation (proportion of node pairs per hop count).
//
// Overrides: nodes=<n> placements=<n> seed=<n>
#include "bench_common.h"
#include "net/measurement.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto placements = cfg.get_count<std::size_t>("placements", 50);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 3);

  bench::banner(
      "Fig. 1 — hop-count distribution between nodes of an EC2 cluster",
      "DARE (CLUSTER'11) Fig. 1");

  // Average over many random instance placements (one real allocation is a
  // single draw from the same process).
  const auto profile = net::ec2_profile(nodes);
  std::vector<double> accumulated(11, 0.0);
  Rng rng(seed);
  for (std::size_t i = 0; i < placements; ++i) {
    net::Topology topo(profile.topology, rng);
    const auto dist = net::hop_count_distribution(topo, 10);
    for (std::size_t h = 0; h < dist.size(); ++h) {
      accumulated[h] += dist[h];
    }
  }
  for (auto& p : accumulated) p /= static_cast<double>(placements);

  AsciiTable table({"hop count", "proportion of node pairs"});
  for (std::size_t h = 0; h <= 10; ++h) {
    table.add_row({std::to_string(h), fmt_fixed(accumulated[h], 3)});
  }
  table.print(std::cout, "\nProportion of node pairs per hop count");
  std::cout << "\nPaper shape: mode at 4 hops (~0.45 of pairs); an in-house "
               "cluster of this size would be 1-2 hops.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"nodes", "placements", "seed"}}, dare::run);
}
