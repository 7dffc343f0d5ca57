// End-to-end fingerprint oracle for the scheduler layer.
//
// The locality-indexed scheduler replaced the seed's scan/sort path
// (linear find_*_map scans, a per-opportunity stable_sort for Fair, and
// select_reduce scans) as a bit-identical rewrite. This test used to run
// both paths and compare their metrics::fingerprint; the fingerprints below
// were recorded from that A/B, where both paths agreed, before the scan/sort
// path was deleted. They cover FIFO/Fair x vanilla/LRU/ElephantTrap on
// paper defaults and under chaos-level node churn (death sweeps, rejoin
// reconciliation and replica evictions the index must absorb without
// drifting from the name node), plus speculative execution, which consults
// the name node's locations on its own path, and the attempt kill paths
// (speculation x cloning x job failure).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/invariant.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"

namespace dare::cluster {
namespace {

[[noreturn]] void throwing_handler(const InvariantViolation& v) {
  throw std::logic_error("invariant violated: " + v.message);
}

class ThrowOnInvariant {
 public:
  ThrowOnInvariant() : previous_(set_invariant_handler(&throwing_handler)) {}
  ~ThrowOnInvariant() { set_invariant_handler(previous_); }

 private:
  InvariantHandler previous_;
};

std::uint64_t fingerprint_of(const ClusterOptions& opts,
                             const workload::Workload& wl) {
  return metrics::fingerprint(run_once(opts, wl));
}

struct RecordedCase {
  SchedulerKind scheduler;
  PolicyKind policy;
  std::uint64_t paper_defaults;  ///< CCT 20 nodes, 60 wl1 jobs, seed 42
  std::uint64_t chaos_churn;     ///< EC2 10 nodes, 50 wl1 jobs, churn
};

std::string case_name(const ::testing::TestParamInfo<RecordedCase>& info) {
  std::string name = std::string(scheduler_name(info.param.scheduler)) +
                     "_" + policy_name(info.param.policy);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class SchedFingerprint : public ::testing::TestWithParam<RecordedCase> {};

TEST_P(SchedFingerprint, PaperDefaultsMatchRecorded) {
  ThrowOnInvariant guard;
  const RecordedCase& c = GetParam();
  const auto opts = paper_defaults(net::cct_profile(20), c.scheduler,
                                   c.policy, 42);
  EXPECT_EQ(fingerprint_of(opts, standard_wl1(20, 60, 1)), c.paper_defaults);
}

TEST_P(SchedFingerprint, ChaosChurnMatchesRecorded) {
  ThrowOnInvariant guard;
  const RecordedCase& c = GetParam();
  // Mirrors the chaos-soak configuration: stochastic transient + permanent
  // failures with rack correlation, injected task failures, aggressive
  // re-replication — every index-reconciliation path fires.
  auto opts = paper_defaults(net::ec2_profile(10), c.scheduler, c.policy, 7);
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 60.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 0.25;
  opts.faults.rack_correlation = 0.3;
  opts.faults.task_failure_prob = 0.01;
  opts.faults.min_live_workers = 4;
  opts.rereplication_interval = from_seconds(2.0);
  opts.rereplication_batch = 32;

  workload::WorkloadOptions wopts;
  wopts.num_jobs = 50;
  wopts.seed = 7;
  wopts.catalog.small_files = 16;
  wopts.catalog.large_files = 2;
  wopts.catalog.large_min_blocks = 5;
  wopts.catalog.large_max_blocks = 8;
  EXPECT_EQ(fingerprint_of(opts, workload::make_wl1(wopts)), c.chaos_churn);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, SchedFingerprint,
    ::testing::Values(
        RecordedCase{SchedulerKind::kFifo, PolicyKind::kVanilla,
                     0x78bc58fd5e560dcfULL, 0xf646729be09f5143ULL},
        RecordedCase{SchedulerKind::kFifo, PolicyKind::kGreedyLru,
                     0x0fdb81ebf2ce1291ULL, 0x6e47fd02c97a985cULL},
        RecordedCase{SchedulerKind::kFifo, PolicyKind::kElephantTrap,
                     0x7d62b415eb3fec73ULL, 0x62c59d8dcc62283bULL},
        RecordedCase{SchedulerKind::kFair, PolicyKind::kVanilla,
                     0x8460d1e0fa55b740ULL, 0x27d5274e312ceecdULL},
        RecordedCase{SchedulerKind::kFair, PolicyKind::kGreedyLru,
                     0x06c2c70c723040aeULL, 0x45ffa4d054c9aab9ULL},
        RecordedCase{SchedulerKind::kFair, PolicyKind::kElephantTrap,
                     0x0088e6eb1b64691fULL, 0x4ae55af0998fa8f2ULL}),
    case_name);

TEST(SchedFingerprintSpeculation, SpeculationMatchesRecorded) {
  ThrowOnInvariant guard;
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFair,
                             PolicyKind::kElephantTrap, 11);
  opts.enable_speculation = true;
  EXPECT_EQ(fingerprint_of(opts, standard_wl1(10, 40, 3)),
            0x015c63a92d5beaadULL);
}

// Every way a map attempt can end without winning: a winner kills its
// speculative or cloned siblings, node loss sweeps the attempts on a dead
// tracker, and a task that exhausts max_task_attempts kills its whole job.
// Speculation, budgeted cloning and job failure run together here, so the
// pins cover the shared launcher and kill path with all three attempt
// kinds in flight.
struct KillPathCase {
  SchedulerKind scheduler;
  std::uint64_t fingerprint;
};

class SchedFingerprintKillPaths
    : public ::testing::TestWithParam<KillPathCase> {};

TEST_P(SchedFingerprintKillPaths, MatchesRecorded) {
  ThrowOnInvariant guard;
  auto opts = paper_defaults(net::ec2_profile(24), GetParam().scheduler,
                             PolicyKind::kElephantTrap, 1);
  opts.enable_speculation = true;
  opts.enable_task_cloning = true;
  opts.clone_budget_fraction = 0.2;
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 90.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 0.2;
  opts.faults.task_failure_prob = 0.08;
  opts.faults.min_live_workers = 4;
  opts.max_task_attempts = 2;
  const auto result = run_once(opts, standard_wl1(24, 120, 1));
  // The pin only guards the kill paths while the run still reaches them.
  EXPECT_GT(result.failed_jobs, 0u);
  EXPECT_GT(result.speculative_killed, 0u);
  EXPECT_GT(result.clones_killed, 0u);
  EXPECT_EQ(metrics::fingerprint(result), GetParam().fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, SchedFingerprintKillPaths,
    ::testing::Values(
        KillPathCase{SchedulerKind::kFifo, 0x0e50e359231fc4e1ULL},
        KillPathCase{SchedulerKind::kFair, 0x61a8340133910bf5ULL}),
    [](const ::testing::TestParamInfo<KillPathCase>& info) {
      return std::string(scheduler_name(info.param.scheduler)) +
             "_elephant_trap";
    });

/// Deterministic work counters (RunResult::work), pinned exactly, with the
/// fingerprint of the run they count: a change in how many events the run
/// executes, or in how much work the sweep, the selection, the Fair
/// decline memo or the locality index's upkeep does, fails here on any
/// machine, where a CPU budget could not tell.
struct OfferWorkCase {
  SchedulerKind scheduler;
  PolicyKind policy;
  std::uint64_t fingerprint;
  std::uint64_t events;      ///< executed events, all kinds
  std::uint64_t heartbeats;  ///< executed heartbeat events
  std::uint64_t sweeps;
  std::uint64_t node_visits;
  std::uint64_t select_map_calls;
  std::uint64_t select_reduce_calls;
  std::uint64_t job_probes;
  std::uint64_t memo_answers;
  std::uint64_t candidate_inserts;
  std::uint64_t candidate_erases;
  std::uint64_t candidate_allocations;
  std::uint64_t watcher_visits;
};

class OfferWorkCounters : public ::testing::TestWithParam<OfferWorkCase> {};

TEST_P(OfferWorkCounters, MatchRecorded) {
  const OfferWorkCase& c = GetParam();
  const auto result =
      run_once(paper_defaults(net::ec2_profile(24), c.scheduler, c.policy, 42),
               standard_wl1(24, 200, 1));
  EXPECT_EQ(metrics::fingerprint(result), c.fingerprint);
  const auto& events = result.work.events;
  EXPECT_EQ(std::accumulate(events.begin(), events.end(), std::uint64_t{0}),
            c.events);
  EXPECT_EQ(events[static_cast<std::size_t>(Cluster::EventKind::kHeartbeat)],
            c.heartbeats);
  EXPECT_EQ(result.work.sweeps, c.sweeps);
  EXPECT_EQ(result.work.node_visits, c.node_visits);
  EXPECT_EQ(result.work.select_map_calls, c.select_map_calls);
  EXPECT_EQ(result.work.select_reduce_calls, c.select_reduce_calls);
  EXPECT_EQ(result.work.job_probes, c.job_probes);
  EXPECT_EQ(result.work.memo_answers, c.memo_answers);
  EXPECT_EQ(result.work.candidate_inserts, c.candidate_inserts);
  EXPECT_EQ(result.work.candidate_erases, c.candidate_erases);
  EXPECT_EQ(result.work.candidate_allocations, c.candidate_allocations);
  EXPECT_EQ(result.work.watcher_visits, c.watcher_visits);
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, OfferWorkCounters,
    ::testing::Values(
        OfferWorkCase{SchedulerKind::kFair, PolicyKind::kVanilla,
                      0xf496d732b1f866aeULL, 735, 23, 512, 3624, 3546,
                      200, 2136, 2748, 1003, 0, 400, 0},
        OfferWorkCase{SchedulerKind::kFifo, PolicyKind::kElephantTrap,
                      0xd20ad4751f25f07fULL, 718, 57, 461, 494, 307, 200,
                      0, 0, 2119, 0, 427, 72}),
    [](const ::testing::TestParamInfo<OfferWorkCase>& info) {
      std::string name = std::string(scheduler_name(info.param.scheduler)) +
                         "_" + policy_name(info.param.policy);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The same counters on a fault run: churn, rack partitions, stragglers
/// with detection and budgeted cloning on 24 EC2 nodes. Dead, blacklisted,
/// detected-slow and partitioned nodes are closed to launches, and the
/// assignment pass offers only open nodes, so `node_visits` counts exactly
/// the visits that can launch.
TEST(FaultWorkCounters, MatchRecorded) {
  ThrowOnInvariant guard;
  auto opts = paper_defaults(net::ec2_profile(24), SchedulerKind::kFair,
                             PolicyKind::kGreedyLru, 42);
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 120.0;
  opts.faults.mttr_s = 30.0;
  opts.faults.permanent_fraction = 0.2;
  opts.faults.min_live_workers = 4;
  opts.stragglers.enabled = true;
  opts.stragglers.tail_prob = 0.1;
  opts.stragglers.tail_cap = 8.0;
  opts.enable_straggler_detection = true;
  opts.netfault.enabled = true;
  opts.netfault.partition_mtbf_s = 60.0;
  opts.netfault.partition_duration_s = 20.0;
  opts.enable_task_cloning = true;
  opts.clone_budget_fraction = 0.1;
  const auto result = run_once(opts, standard_wl1(24, 200, 1));
  // The pin only guards the closed-node paths while the run reaches them.
  EXPECT_GT(result.partition_episodes, 0u);
  EXPECT_GT(result.failures_detected, 0u);
  EXPECT_GT(result.stragglers_detected, 0u);
  EXPECT_GT(result.clones_launched, 0u);
  EXPECT_EQ(metrics::fingerprint(result), 0xa4ff67546996504bULL);
  const auto& events = result.work.events;
  EXPECT_EQ(std::accumulate(events.begin(), events.end(), std::uint64_t{0}),
            3141u);
  EXPECT_EQ(events[static_cast<std::size_t>(Cluster::EventKind::kHeartbeat)],
            102u);
  EXPECT_EQ(result.work.sweeps, 613u);
  EXPECT_EQ(result.work.node_visits, 1917u);
  EXPECT_EQ(result.work.select_map_calls, 1860u);
  EXPECT_EQ(result.work.select_reduce_calls, 240u);
  EXPECT_EQ(result.work.job_probes, 1345u);
  EXPECT_EQ(result.work.memo_answers, 1112u);
  EXPECT_EQ(result.work.candidate_inserts, 2282u);
  EXPECT_EQ(result.work.candidate_erases, 237u);
  EXPECT_EQ(result.work.candidate_allocations, 408u);
  EXPECT_EQ(result.work.watcher_visits, 31u);
}

}  // namespace
}  // namespace dare::cluster
