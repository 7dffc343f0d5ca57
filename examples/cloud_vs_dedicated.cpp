// Dedicated cluster vs virtualized public cloud (paper Sections II-B and
// V-E): characterizes both substrates (RTT, disk and network bandwidth,
// hop distribution) and then shows that the *same* DARE configuration buys
// a larger turnaround improvement on the cloud profile, because its
// network/disk bandwidth ratio is lower.
//
// Usage: cloud_vs_dedicated [jobs=N] [nodes=N] [seed=N]
#include <iostream>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/stats.h"
#include "common/table.h"
#include "net/measurement.h"

namespace {

using namespace dare;

void characterize(const net::ClusterProfile& profile, std::uint64_t seed,
                  AsciiTable& table) {
  Rng rng(seed);
  net::Topology topo(profile.topology, rng);
  net::Network network(profile, topo, rng);
  const std::string label = profile.name == "cct" ? "CCT" : "EC2";

  const auto rtt = summarize("rtt", net::ping_all_pairs(network, 3));
  const auto disk = summarize(
      "disk",
      net::disk_bandwidth_samples(profile, profile.topology.nodes, 20, rng));
  const auto net_bw = summarize("net", net::iperf_samples(network, 500, rng));
  table.add_row({label, fmt_fixed(rtt.mean, 2) + " ms",
                 fmt_fixed(disk.mean, 1) + " MB/s",
                 fmt_fixed(net_bw.mean, 1) + " MB/s",
                 fmt_percent(net_bw.mean / disk.mean, 1)});
}

int run(const Config& cfg) {
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto jobs = cfg.get_count<std::size_t>("jobs", 400);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 11);

  // 1. Substrate characterization (cf. Tables I-II).
  AsciiTable substrate({"cluster", "mean RTT", "disk bw", "net bw",
                        "net/disk ratio"});
  characterize(net::cct_profile(nodes), seed, substrate);
  characterize(net::ec2_profile(nodes), seed, substrate);
  substrate.print(std::cout, "Substrate characterization");
  std::cout << "\nThe lower the net/disk ratio, the more a remote read "
               "costs relative to a local one —\nand the more locality is "
               "worth.\n\n";

  // 2. Same workload, same DARE parameters, both substrates.
  const auto wl = cluster::standard_wl1(nodes, jobs, seed);
  AsciiTable results({"cluster", "policy", "locality", "GMTT (s)",
                      "slowdown"});
  double gain[2] = {0, 0};
  int idx = 0;
  for (const auto& profile :
       {net::cct_profile(nodes), net::ec2_profile(nodes)}) {
    const auto vanilla = cluster::run_once(
        cluster::paper_defaults(profile, cluster::SchedulerKind::kFifo,
                                cluster::PolicyKind::kVanilla, seed),
        wl);
    const auto dare = cluster::run_once(
        cluster::paper_defaults(profile, cluster::SchedulerKind::kFifo,
                                cluster::PolicyKind::kElephantTrap, seed),
        wl);
    const std::string label = profile.name == "cct" ? "CCT" : "EC2";
    results.add_row({label, "vanilla", fmt_percent(vanilla.locality),
                     fmt_fixed(vanilla.gmtt_s, 2),
                     fmt_fixed(vanilla.mean_slowdown, 2)});
    results.add_row({label, "dare-et", fmt_percent(dare.locality),
                     fmt_fixed(dare.gmtt_s, 2),
                     fmt_fixed(dare.mean_slowdown, 2)});
    gain[idx++] = 1.0 - dare.gmtt_s / vanilla.gmtt_s;
  }
  results.print(std::cout, "Same workload, same DARE parameters");
  std::cout << "\nGMTT reduction: CCT " << fmt_percent(gain[0]) << ", EC2 "
            << fmt_percent(gain[1]) << " — "
            << (gain[1] >= gain[0]
                    ? "the cloud profits more, as the paper found (16% vs "
                      "19%)."
                    : "close at this scale; at the paper's 100-node cloud "
                      "scale the EC2 gain pulls ahead (16% vs 19%) — see "
                      "bench_fig10_ec2.")
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv, {{"jobs", "nodes", "seed"}}, run);
}
