#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cluster/experiment.h"

namespace dare::cluster {
namespace {

workload::Workload tiny_workload(std::size_t jobs = 30,
                                 std::uint64_t seed = 11) {
  workload::WorkloadOptions opts;
  opts.num_jobs = jobs;
  opts.seed = seed;
  opts.catalog.small_files = 20;
  opts.catalog.large_files = 3;
  opts.catalog.large_min_blocks = 8;
  opts.catalog.large_max_blocks = 16;
  return workload::make_wl1(opts);
}

ClusterOptions tiny_options(PolicyKind policy = PolicyKind::kVanilla,
                            SchedulerKind sched = SchedulerKind::kFifo) {
  ClusterOptions opts = paper_defaults(net::cct_profile(8), sched, policy);
  return opts;
}

TEST(Cluster, ConstructsWorkerTopology) {
  Cluster cluster(tiny_options());
  EXPECT_EQ(cluster.worker_count(), 7u);  // 8 nodes = 1 master + 7 workers
}

TEST(Cluster, RejectsDegenerateClusters) {
  ClusterOptions opts = tiny_options();
  opts.profile.topology.nodes = 1;
  EXPECT_THROW(Cluster{opts}, std::invalid_argument);
}

/// Requires constructing a cluster from `opts` to throw
/// std::invalid_argument whose message names the offending field.
void expect_rejects(const ClusterOptions& opts, const std::string& field) {
  try {
    Cluster cluster(opts);
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

// --- option validation (one test per rejected field) ----------------------
// Each of these settings would hang a run (work that never launches, or a
// timer that never advances simulated time) or warp it silently.

TEST(ClusterValidation, RejectsZeroMapSlots) {
  ClusterOptions opts = tiny_options();
  opts.map_slots_per_node = 0;
  expect_rejects(opts, "map_slots_per_node");
}

TEST(ClusterValidation, RejectsZeroReduceSlots) {
  ClusterOptions opts = tiny_options();
  opts.reduce_slots_per_node = 0;
  expect_rejects(opts, "reduce_slots_per_node");
}

TEST(ClusterValidation, RejectsSubMicrosecondHeartbeat) {
  for (const double s : {0.0, -3.0, 1e-9}) {  // 1e-9 s truncates to 0 us
    ClusterOptions opts = tiny_options();
    opts.heartbeat_interval = from_seconds(s);
    expect_rejects(opts, "heartbeat_interval");
  }
}

TEST(ClusterValidation, RejectsZeroMissedHeartbeatTimeout) {
  // A zero timeout declares every node whose beat is not at the monitor's
  // own tick: the run re-registers and re-declares nodes without end.
  ClusterOptions opts = tiny_options();
  opts.detection_missed_heartbeats = 0;
  expect_rejects(opts, "detection_missed_heartbeats");
  opts.detection_missed_heartbeats = 1;
  EXPECT_NO_THROW(Cluster{opts});
}

TEST(ClusterValidation, RejectsScarlettWithDarePolicy) {
  // Scarlett's proactive copies bypass a DARE policy's budget accounting:
  // the two are alternatives, and Scarlett runs only on vanilla HDFS.
  ClusterOptions opts = tiny_options(PolicyKind::kVanilla);
  opts.enable_scarlett = true;
  EXPECT_NO_THROW(Cluster{opts});
  for (const auto policy : {PolicyKind::kGreedyLru, PolicyKind::kGreedyLfu,
                            PolicyKind::kElephantTrap}) {
    opts.policy = policy;
    expect_rejects(opts, "enable_scarlett");
    expect_rejects(opts, "policy");
  }
}

TEST(ClusterValidation, RejectsTrapProbabilityOutsideUnitInterval) {
  for (const double p : {-0.1, 1.5, std::nan("")}) {
    ClusterOptions opts = tiny_options(PolicyKind::kElephantTrap);
    opts.trap.p = p;
    expect_rejects(opts, "trap.p");
  }
}

TEST(ClusterValidation, RejectsBudgetOutsideUnitInterval) {
  for (const double budget : {-0.1, 1.5, std::nan("")}) {
    ClusterOptions opts = tiny_options(PolicyKind::kGreedyLru);
    opts.budget_fraction = budget;
    expect_rejects(opts, "budget_fraction");
  }
}

TEST(Cluster, RunsAllJobsToCompletion) {
  Cluster cluster(tiny_options());
  const auto wl = tiny_workload();
  const auto result = cluster.run(wl);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) {
    EXPECT_GT(jm.completion, jm.arrival);
    EXPECT_GT(jm.maps, 0u);
    EXPECT_LE(jm.local_maps, jm.maps);
    EXPECT_GT(jm.dedicated_runtime_s, 0.0);
    EXPECT_GE(jm.slowdown(), 0.9);  // can't beat a free perfect cluster much
  }
  EXPECT_GT(result.makespan, 0);
  EXPECT_GT(result.gmtt_s, 0.0);
}

TEST(Cluster, RunTwiceThrows) {
  Cluster cluster(tiny_options());
  const auto wl = tiny_workload();
  cluster.run(wl);
  EXPECT_THROW(cluster.run(wl), std::logic_error);
}

TEST(Cluster, VanillaCreatesNoDynamicReplicas) {
  Cluster cluster(tiny_options(PolicyKind::kVanilla));
  const auto result = cluster.run(tiny_workload());
  EXPECT_EQ(result.dynamic_replicas_created, 0u);
  EXPECT_EQ(result.dynamic_replica_disk_writes, 0u);
  EXPECT_EQ(result.blocks_created_per_job, 0.0);
  EXPECT_EQ(result.proactive_replication_bytes, 0u);
}

TEST(Cluster, StaticBlocksLoadedPerPlacement) {
  Cluster cluster(tiny_options());
  const auto wl = tiny_workload();
  (void)cluster.run(wl);
  // Every block's static locations hold the block.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      for (NodeId node : nn.static_locations(bid)) {
        EXPECT_TRUE(
            cluster.data_node(static_cast<std::size_t>(node))
                .has_static_block(bid));
      }
    }
  }
}

TEST(Cluster, DarePoliciesCreateReplicas) {
  for (PolicyKind policy : {PolicyKind::kGreedyLru, PolicyKind::kGreedyLfu,
                            PolicyKind::kElephantTrap}) {
    Cluster cluster(tiny_options(policy));
    const auto result = cluster.run(tiny_workload());
    EXPECT_GT(result.dynamic_replicas_created, 0u)
        << "policy=" << static_cast<int>(policy);
  }
}

TEST(Cluster, BudgetRespectedOnEveryNode) {
  auto opts = tiny_options(PolicyKind::kGreedyLru);
  opts.budget_fraction = 0.1;
  Cluster cluster(opts);
  (void)cluster.run(tiny_workload(60));
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    EXPECT_LE(cluster.data_node(w).dynamic_bytes(),
              cluster.node_budget_bytes());
  }
}

TEST(Cluster, DeterministicAcrossRuns) {
  const auto wl = tiny_workload();
  auto opts = tiny_options(PolicyKind::kElephantTrap);
  Cluster c1(opts);
  Cluster c2(opts);
  const auto r1 = c1.run(wl);
  const auto r2 = c2.run(wl);
  EXPECT_DOUBLE_EQ(r1.locality, r2.locality);
  EXPECT_DOUBLE_EQ(r1.gmtt_s, r2.gmtt_s);
  EXPECT_EQ(r1.dynamic_replicas_created, r2.dynamic_replicas_created);
  EXPECT_EQ(r1.makespan, r2.makespan);
}

TEST(Cluster, SeedChangesOutcome) {
  const auto wl = tiny_workload();
  auto o1 = tiny_options(PolicyKind::kElephantTrap);
  auto o2 = o1;
  o2.seed = 777;
  const auto r1 = run_once(o1, wl);
  const auto r2 = run_once(o2, wl);
  EXPECT_NE(r1.gmtt_s, r2.gmtt_s);
}

TEST(Cluster, DynamicReplicasRegisteredWithNameNode) {
  Cluster cluster(tiny_options(PolicyKind::kGreedyLru));
  (void)cluster.run(tiny_workload(60));
  // Every live dynamic replica that survived to the end and was reported
  // via heartbeat must be known to the name node, and vice versa the name
  // node must not know replicas a node does not hold.
  const auto& nn = cluster.name_node();
  std::size_t live_registered = 0;
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    for (BlockId bid : cluster.data_node(w).dynamic_blocks()) {
      const auto& locs = nn.locations(bid);
      if (std::find(locs.begin(), locs.end(), static_cast<NodeId>(w)) !=
          locs.end()) {
        ++live_registered;
      }
    }
  }
  EXPECT_GT(live_registered, 0u);
}

TEST(Cluster, FairSchedulerRunsToCompletionToo) {
  Cluster cluster(tiny_options(PolicyKind::kElephantTrap,
                               SchedulerKind::kFair));
  const auto result = cluster.run(tiny_workload());
  EXPECT_EQ(result.jobs.size(), 30u);
  EXPECT_GT(result.locality, 0.0);
}

TEST(Cluster, ScarlettModeMovesBytes) {
  auto opts = tiny_options(PolicyKind::kVanilla);
  opts.enable_scarlett = true;
  opts.scarlett.epoch = from_seconds(20.0);
  Cluster cluster(opts);
  const auto result = cluster.run(tiny_workload(60));
  EXPECT_GT(result.proactive_replication_bytes, 0u);
  EXPECT_GT(result.dynamic_replica_disk_writes, 0u);
}

TEST(Cluster, CvAfterComputedAndBeforeStable) {
  Cluster cluster(tiny_options(PolicyKind::kElephantTrap));
  const auto result = cluster.run(tiny_workload(60));
  EXPECT_GT(result.cv_before, 0.0);
  EXPECT_GT(result.cv_after, 0.0);
}

TEST(Cluster, MeanMapTimePlausible) {
  Cluster cluster(tiny_options());
  const auto result = cluster.run(tiny_workload());
  // setup 0.5s + read ~0.8-2s + cpu 0.5-2s.
  EXPECT_GT(result.mean_map_time_s, 1.0);
  EXPECT_LT(result.mean_map_time_s, 60.0);
}

TEST(Cluster, ValidatePassesAfterEveryConfiguration) {
  for (PolicyKind policy : {PolicyKind::kVanilla, PolicyKind::kGreedyLru,
                            PolicyKind::kElephantTrap}) {
    for (SchedulerKind sched : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
      Cluster cluster(tiny_options(policy, sched));
      (void)cluster.run(tiny_workload(60));
      EXPECT_NO_THROW(cluster.validate());
    }
  }
}

TEST(Cluster, ValidatePassesAfterFailuresAndSpeculation) {
  auto opts = tiny_options(PolicyKind::kElephantTrap);
  opts.failures.push_back({from_seconds(8.0), NodeId{2}});
  opts.enable_speculation = true;
  opts.profile.straggler_fraction = 0.3;
  opts.profile.straggler_slowdown = 4.0;
  Cluster cluster(opts);
  (void)cluster.run(tiny_workload(80));
  EXPECT_NO_THROW(cluster.validate());
}

/// A Scarlett epoch still pending when the last job finishes dies with the
/// run: fired after every job, it would replicate and set the makespan. A
/// fault-free run ends at its final heartbeat round, at most one interval
/// past its last completion.
TEST(Cluster, ScarlettEpochEndsWithTheRun) {
  auto opts = paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, 42);
  opts.enable_scarlett = true;  // the default 300 s epoch, budget 0.2
  Cluster cluster(opts);
  const auto result = cluster.run(standard_wl1(20, 500, 43));
  SimTime last = 0;
  for (const auto& job : result.jobs) last = std::max(last, job.completion);
  EXPECT_LE(result.makespan, last + opts.heartbeat_interval)
      << "makespan " << to_seconds(result.makespan) << " s, last completion "
      << to_seconds(last) << " s";
}

/// The retry budget (max_task_attempts) counts failed attempts per map, not
/// per job: with every attempt failing and one slot, a 2-map job alternates
/// its maps and dies when one of them spends the budget.
TEST(Cluster, AttemptBudgetIsPerMap) {
  workload::Workload wl;
  wl.name = "two-block-job";
  wl.catalog.push_back({"f0", 2});
  workload::JobTemplate job;
  job.map_cpu = from_seconds(1.0);
  wl.jobs.push_back(job);
  // (budget, failed attempts when the job dies): maps a, b, a fail for 2,
  // and a, b, a, b, a for 3.
  for (const auto& [budget, failures] :
       {std::pair<std::size_t, std::uint64_t>{2, 3}, {3, 5}}) {
    auto opts = paper_defaults(net::cct_profile(2), SchedulerKind::kFifo,
                               PolicyKind::kVanilla);
    opts.map_slots_per_node = 1;
    opts.faults.enabled = true;
    opts.faults.mtbf_s = 1e9;
    opts.faults.task_failure_prob = 1.0;
    opts.faults.min_live_workers = 0;
    opts.max_task_attempts = budget;
    Cluster cluster(opts);
    ASSERT_EQ(cluster.worker_count(), 1u);
    const auto result = cluster.run(wl);
    ASSERT_EQ(result.jobs.size(), 1u);
    EXPECT_TRUE(result.jobs[0].failed) << "budget " << budget;
    EXPECT_EQ(result.task_attempt_failures, failures) << "budget " << budget;
  }
}

}  // namespace
}  // namespace dare::cluster
