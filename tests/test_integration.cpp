// End-to-end integration tests: full (scaled-down) paper experiments,
// checking the *orderings* the evaluation section reports rather than
// absolute numbers.
#include <gtest/gtest.h>

#include "cluster/experiment.h"
#include "cluster/farm.h"

namespace dare::cluster {
namespace {

constexpr std::size_t kJobs = 150;

struct Fig7Row {
  metrics::RunResult vanilla;
  metrics::RunResult lru;
  metrics::RunResult trap;
};

Fig7Row run_row(SchedulerKind sched, const workload::Workload& wl,
                std::size_t nodes = 12) {
  Fig7Row row;
  row.vanilla = run_once(
      paper_defaults(net::cct_profile(nodes), sched, PolicyKind::kVanilla),
      wl);
  row.lru = run_once(
      paper_defaults(net::cct_profile(nodes), sched, PolicyKind::kGreedyLru),
      wl);
  row.trap = run_once(paper_defaults(net::cct_profile(nodes), sched,
                                     PolicyKind::kElephantTrap),
                      wl);
  return row;
}

TEST(Integration, Fig7ShapeFifoWl1) {
  // At this scaled-down size (15 workers vs the paper's 19) ratios compress
  // because vanilla's floor is replicas/workers; require a solid multiple
  // plus a large absolute locality gain. The full-scale factor is checked
  // by bench_fig7_cct.
  const auto wl = standard_wl1(16, kJobs);
  const auto row = run_row(SchedulerKind::kFifo, wl, 16);
  EXPECT_GT(row.lru.locality, row.vanilla.locality * 1.8);
  EXPECT_GT(row.trap.locality, row.vanilla.locality * 1.4);
  EXPECT_GT(row.lru.locality - row.vanilla.locality, 0.15);
  // And improves (or at least does not worsen) user metrics.
  EXPECT_LT(row.trap.gmtt_s, row.vanilla.gmtt_s * 1.05);
  EXPECT_LT(row.trap.mean_slowdown, row.vanilla.mean_slowdown * 1.05);
}

TEST(Integration, Fig7ShapeFairWl2) {
  const auto wl = standard_wl2(12, kJobs);
  const auto row = run_row(SchedulerKind::kFair, wl);
  // Fair with delay scheduling already has high locality; DARE keeps it
  // high (near the ceiling the two are within scheduling noise of each
  // other at this scale — the full-size contrast is in bench_fig7_cct).
  EXPECT_GT(row.vanilla.locality, 0.4);
  EXPECT_GE(row.trap.locality, row.vanilla.locality - 0.04);
  EXPECT_GT(row.trap.locality, 0.7);
}

TEST(Integration, FairBeatsFifoOnLocalityVanilla) {
  const auto wl = standard_wl2(12, kJobs);
  const auto fifo = run_once(
      paper_defaults(net::cct_profile(12), SchedulerKind::kFifo,
                     PolicyKind::kVanilla),
      wl);
  const auto fair = run_once(
      paper_defaults(net::cct_profile(12), SchedulerKind::kFair,
                     PolicyKind::kVanilla),
      wl);
  EXPECT_GT(fair.locality, fifo.locality);
}

TEST(Integration, TrapWritesLessDiskThanGreedyLru) {
  // Paper Section I: the probabilistic scheme achieves comparable locality
  // with about half the dynamic-replica disk writes of greedy LRU.
  const auto wl = standard_wl1(12, kJobs);
  const auto row = run_row(SchedulerKind::kFifo, wl);
  EXPECT_LT(row.trap.dynamic_replica_disk_writes,
            row.lru.dynamic_replica_disk_writes);
  EXPECT_GT(row.trap.locality, row.lru.locality * 0.7);
}

TEST(Integration, UniformityImprovesWithDare) {
  // Fig. 11: cv of node popularity indices shrinks after dynamic
  // replication spreads hot blocks.
  const auto wl = standard_wl1(12, kJobs);
  const auto result = run_once(
      paper_defaults(net::cct_profile(12), SchedulerKind::kFifo,
                     PolicyKind::kElephantTrap),
      wl);
  EXPECT_LT(result.cv_after, result.cv_before);
}

TEST(Integration, Ec2GainsAtLeastMatchCct) {
  // Fig. 10 vs Fig. 7: the EC2 profile's lower network/disk bandwidth ratio
  // makes remote reads relatively more expensive, so DARE's improvement in
  // turnaround is at least as large there.
  const auto wl_cct = standard_wl1(20, 400, 3);
  const auto cct_vanilla =
      run_once(paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                              PolicyKind::kVanilla),
               wl_cct);
  const auto cct_dare =
      run_once(paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                              PolicyKind::kElephantTrap),
               wl_cct);
  const auto ec2_vanilla =
      run_once(paper_defaults(net::ec2_profile(20), SchedulerKind::kFifo,
                              PolicyKind::kVanilla),
               wl_cct);
  const auto ec2_dare =
      run_once(paper_defaults(net::ec2_profile(20), SchedulerKind::kFifo,
                              PolicyKind::kElephantTrap),
               wl_cct);
  const double cct_gain = cct_vanilla.gmtt_s / cct_dare.gmtt_s;
  const double ec2_gain = ec2_vanilla.gmtt_s / ec2_dare.gmtt_s;
  EXPECT_GT(cct_gain, 1.0);
  EXPECT_GT(ec2_gain, 1.0);
  // Allow noise but require the qualitative ordering not be inverted badly.
  EXPECT_GT(ec2_gain, cct_gain * 0.9);
}

TEST(Integration, HigherPGivesMoreReplication) {
  // Fig. 8a: replication activity grows with the sampling probability.
  const auto wl = standard_wl2(12, kJobs);
  ClusterOptions low = paper_defaults(net::cct_profile(12),
                                      SchedulerKind::kFifo,
                                      PolicyKind::kElephantTrap);
  low.trap.p = 0.1;
  ClusterOptions high = low;
  high.trap.p = 0.9;
  const auto r_low = run_once(low, wl);
  const auto r_high = run_once(high, wl);
  EXPECT_GT(r_high.dynamic_replica_disk_writes,
            r_low.dynamic_replica_disk_writes);
  EXPECT_GE(r_high.locality, r_low.locality * 0.9);
}

TEST(Integration, ScarlettComparableButCostsNetwork) {
  const auto wl = standard_wl1(12, kJobs);
  ClusterOptions scarlett_opts = paper_defaults(
      net::cct_profile(12), SchedulerKind::kFifo, PolicyKind::kVanilla);
  scarlett_opts.enable_scarlett = true;
  scarlett_opts.scarlett.epoch = from_seconds(60.0);
  const auto scarlett = run_once(scarlett_opts, wl);
  const auto dare = run_once(
      paper_defaults(net::cct_profile(12), SchedulerKind::kFifo,
                     PolicyKind::kElephantTrap),
      wl);
  EXPECT_GT(scarlett.proactive_replication_bytes, 0u);
  EXPECT_EQ(dare.proactive_replication_bytes, 0u);
}

TEST(Integration, ParallelSweepMatchesSequential) {
  const auto wl = standard_wl1(12, 60, 5);
  std::vector<ClusterOptions> cells;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    cells.push_back(paper_defaults(net::cct_profile(8), SchedulerKind::kFifo,
                                   PolicyKind::kElephantTrap, seed));
  }
  std::vector<metrics::RunResult> parallel(cells.size());
  run_sweep(cells.size(), 4, [&](std::size_t i) {
    parallel[i] = run_once(cells[i], wl);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto sequential = run_once(cells[i], wl);
    EXPECT_DOUBLE_EQ(parallel[i].locality, sequential.locality);
    EXPECT_EQ(parallel[i].makespan, sequential.makespan);
  }
}

}  // namespace
}  // namespace dare::cluster
