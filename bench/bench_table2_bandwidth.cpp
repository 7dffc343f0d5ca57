// Table II: disk (read) and network bandwidth in MB/s for the CCT and EC2
// clusters (min / mean / max / standard deviation), measured hdparm- and
// iperf-style against the simulated substrate.
//
// Overrides: nodes=<n> samples=<n> pairs=<n> seed=<n>
#include "bench_common.h"
#include "common/stats.h"
#include "net/measurement.h"

namespace dare {
namespace {

int run(const Config& cfg) {
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto samples = cfg.get_count<std::size_t>("samples", 50);
  const auto pairs = cfg.get_count<std::size_t>("pairs", 2000);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 2);

  bench::banner("Table II — disk (read) and network bandwidth (MB/s)",
                "DARE (CLUSTER'11) Table II");

  AsciiTable table({"measurement", "min", "mean", "max", "std. dev."});
  double disk_mean[2] = {0, 0};
  double net_mean[2] = {0, 0};
  int i = 0;
  for (const auto& profile : {net::cct_profile(nodes),
                              net::ec2_profile(nodes)}) {
    Rng rng(seed);
    net::Topology topo(profile.topology, rng);
    net::Network network(profile, topo, rng);
    const std::string label = profile.name == "cct" ? "CCT" : "EC2";

    const auto disk = net::disk_bandwidth_samples(profile, nodes, samples, rng);
    const auto drow = summarize(label + " disk bandwidth", disk);
    table.add_row({drow.label, fmt_fixed(drow.min, 1), fmt_fixed(drow.mean, 1),
                   fmt_fixed(drow.max, 1), fmt_fixed(drow.stddev, 2)});

    const auto iperf = net::iperf_samples(network, pairs, rng);
    const auto nrow = summarize(label + " network bandwidth", iperf);
    table.add_row({nrow.label, fmt_fixed(nrow.min, 1), fmt_fixed(nrow.mean, 1),
                   fmt_fixed(nrow.max, 1), fmt_fixed(nrow.stddev, 2)});
    disk_mean[i] = drow.mean;
    net_mean[i] = nrow.mean;
    ++i;
  }
  table.print(std::cout, "\nBandwidth in MB/s");
  std::cout << "\nnetwork/disk bandwidth ratio: CCT "
            << fmt_percent(net_mean[0] / disk_mean[0], 1) << ", EC2 "
            << fmt_percent(net_mean[1] / disk_mean[1], 1)
            << " (paper: 74.6% vs 51.75% — the CCT ratio must be ~40% "
               "higher)\n";
  std::cout << "Paper reference: CCT disk 145.3/157.8/167.0/8.02, "
               "CCT net 115.4/117.7/118.0/0.65,\n"
               "                 EC2 disk 67.1/141.5/357.9/74.2, "
               "EC2 net 5.8/73.2/109.9/16.9\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"nodes", "pairs", "samples", "seed"}}, dare::run);
}
