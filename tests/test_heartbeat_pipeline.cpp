// Tests for the DNA_DYNREPL metadata pipeline: a dynamic replica exists on
// the data node the moment the policy captures it, but only becomes visible
// to the name node — and hence to the scheduler — at the node's next
// heartbeat; evictions propagate the same way. The timing tests run whole
// clusters and read the trace: a beat lands on its node's phase points
// (staggered over one interval at start), the monitor reads a cut-off
// node's last delivered beat, and the run ends on the last final beat.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/rng.h"
#include "net/profile.h"
#include "obs/trace_collector.h"
#include "sim/simulation.h"
#include "storage/datanode.h"
#include "storage/namenode.h"

namespace dare::storage {
namespace {

class HeartbeatPipelineTest : public ::testing::Test {
 protected:
  HeartbeatPipelineTest()
      : nn_(4, nullptr, rng_), dn_(3, net::cct_profile().disk, rng_) {}

  /// One heartbeat cycle: drain the report into the name node, reclaim.
  void heartbeat() {
    const auto report = dn_.drain_report();
    if (!report.added.empty()) {
      nn_.report_dynamic_added(dn_.id(), report.added);
    }
    if (!report.removed.empty()) {
      nn_.report_dynamic_removed(dn_.id(), report.removed);
    }
    dn_.reclaim_marked();
  }

  bool visible_at_namenode(BlockId block) {
    const auto& locs = nn_.locations(block);
    return std::find(locs.begin(), locs.end(), dn_.id()) != locs.end();
  }

  Rng rng_{71};
  NameNode nn_;
  DataNode dn_;
};

TEST_F(HeartbeatPipelineTest, ReplicaInvisibleUntilHeartbeat) {
  // Create files until the static placement avoids our data node (node 3);
  // with replication 2 of 4 nodes a few tries always suffice.
  BlockId b = kInvalidBlock;
  for (int attempt = 0; attempt < 16 && b == kInvalidBlock; ++attempt) {
    const FileId f = nn_.create_file(
        std::string("a") + std::to_string(attempt), 1, kMiB, 2, 0);
    const BlockId candidate = nn_.file(f).blocks[0];
    if (!visible_at_namenode(candidate)) b = candidate;
  }
  ASSERT_NE(b, kInvalidBlock);

  dn_.insert_dynamic(nn_.block(b));
  EXPECT_TRUE(dn_.has_visible_block(b));
  EXPECT_FALSE(visible_at_namenode(b)) << "schedulable before heartbeat";
  heartbeat();
  EXPECT_TRUE(visible_at_namenode(b));
}

TEST_F(HeartbeatPipelineTest, EvictionInvisibleUntilHeartbeat) {
  const FileId f = nn_.create_file("a", 1, kMiB, 1, 0);
  const BlockId b = nn_.file(f).blocks[0];
  if (visible_at_namenode(b)) GTEST_SKIP();
  dn_.insert_dynamic(nn_.block(b));
  heartbeat();
  ASSERT_TRUE(visible_at_namenode(b));

  dn_.mark_for_deletion(b);
  // The name node still believes the replica exists (stale metadata window).
  EXPECT_TRUE(visible_at_namenode(b));
  EXPECT_FALSE(dn_.has_visible_block(b));
  heartbeat();
  EXPECT_FALSE(visible_at_namenode(b));
}

TEST_F(HeartbeatPipelineTest, InsertEvictWithinOneIntervalIsInvisible) {
  const FileId f = nn_.create_file("a", 1, kMiB, 1, 0);
  const BlockId b = nn_.file(f).blocks[0];
  if (visible_at_namenode(b)) GTEST_SKIP();
  dn_.insert_dynamic(nn_.block(b));
  dn_.mark_for_deletion(b);
  heartbeat();
  // The add and remove cancelled out: the name node never learned of it.
  EXPECT_FALSE(visible_at_namenode(b));
  EXPECT_EQ(nn_.dynamic_replica_count(), 0u);
}

TEST_F(HeartbeatPipelineTest, ReplicaCountsSurviveManyCycles) {
  const FileId f = nn_.create_file("a", 6, kMiB, 1, 0);
  const auto& blocks = nn_.file(f).blocks;
  std::size_t expected_dynamic = 0;
  for (std::size_t cycle = 0; cycle < 6; ++cycle) {
    const BlockId b = blocks[cycle];
    if (!visible_at_namenode(b) && dn_.insert_dynamic(nn_.block(b))) {
      ++expected_dynamic;
    }
    if (cycle % 2 == 1) {
      // Evict the block added two cycles ago (if still live).
      const BlockId victim = blocks[cycle - 1];
      if (dn_.has_dynamic_block(victim)) {
        dn_.mark_for_deletion(victim);
        --expected_dynamic;
      }
    }
    heartbeat();
    EXPECT_EQ(nn_.dynamic_replica_count(), expected_dynamic)
        << "cycle " << cycle;
  }
}

/// Node `n`'s phase points without churn: its staggered first beat plus
/// every whole interval after it.
struct PhasePoints {
  SimDuration interval;
  std::size_t workers;

  SimTime first(std::size_t n) const {
    return interval * static_cast<SimDuration>(n + 1) /
           static_cast<SimDuration>(workers);
  }
  bool on(std::size_t n, SimTime t) const {
    return t >= first(n) && (t - first(n)) % interval == 0;
  }
  /// First phase point of `n` at or after `t`.
  SimTime at_or_after(std::size_t n, SimTime t) const {
    if (t <= first(n)) return first(n);
    return first(n) + (t - first(n) + interval - 1) / interval * interval;
  }
  /// Last phase point of `n` strictly before `t` (t > first(n)).
  SimTime before(std::size_t n, SimTime t) const {
    return first(n) + (t - first(n) - 1) / interval * interval;
  }
};

TEST(HeartbeatTiming, AdoptedReplicaRegistersAtItsNodesNextPhasePoint) {
  obs::TraceCollector tracer;
  auto opts = cluster::paper_defaults(
      net::ec2_profile(24), cluster::SchedulerKind::kFifo,
      cluster::PolicyKind::kGreedyLru, 42);
  opts.tracer = &tracer;
  cluster::Cluster cluster(opts);
  cluster.run(cluster::standard_wl1(24, 120, 1));
  const PhasePoints phase{opts.heartbeat_interval, cluster.worker_count()};

  std::map<NodeId, std::vector<SimTime>> beats;
  for (const auto& e : tracer.events()) {
    if (e.kind == obs::EventKind::kHeartbeat) beats[e.node].push_back(e.t);
  }
  // The last adoption or eviction of each (node, block): a replica still
  // held at the end must be a name-node location by then.
  std::map<std::pair<NodeId, std::int64_t>, bool> held;
  std::size_t checked = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == obs::EventKind::kReplicaEvicted) {
      held[{e.node, e.task}] = false;
    }
    if (e.kind != obs::EventKind::kReplicaAdopted) continue;
    held[{e.node, e.task}] = true;
    const auto n = static_cast<std::size_t>(e.node);
    if (phase.on(n, e.t)) continue;  // a beat at t fires after the adoption
    const auto& times = beats[e.node];
    const auto next = std::lower_bound(times.begin(), times.end(), e.t);
    ASSERT_NE(next, times.end()) << "no beat after the adoption at " << e.t;
    EXPECT_EQ(*next, phase.at_or_after(n, e.t))
        << "node " << n << " adopted block " << e.task << " at " << e.t;
    ++checked;
  }
  EXPECT_GT(checked, 50u);
  for (const auto& [key, live] : held) {
    if (!live) continue;
    const auto& locs = cluster.name_node().locations(key.second);
    EXPECT_NE(std::find(locs.begin(), locs.end(), key.first), locs.end())
        << "block " << key.second << " held on node " << key.first;
  }
}

TEST(HeartbeatTiming, PartitionedNodeDeclaredAtFirstTickPastTimeout) {
  obs::TraceCollector tracer;
  auto opts = cluster::paper_defaults(
      net::ec2_profile(24), cluster::SchedulerKind::kFifo,
      cluster::PolicyKind::kVanilla, 42);
  opts.tracer = &tracer;
  // Cut off worker 0's rack (the topology is drawn from the seed alone).
  const RackId rack = cluster::Cluster(opts).topology().rack_of(0);
  const SimTime cut = from_seconds(40.0) + 1234;  // off every phase point
  opts.partition_events.push_back({cut, rack, from_seconds(60.0)});
  cluster::Cluster cluster(opts);
  const auto result = cluster.run(cluster::standard_wl1(24, 120, 1));
  const SimDuration interval = opts.heartbeat_interval;
  const PhasePoints phase{interval, cluster.worker_count()};
  const SimDuration timeout =
      interval * static_cast<SimDuration>(opts.detection_missed_heartbeats);

  std::map<NodeId, SimTime> declared;
  for (const auto& e : tracer.events()) {
    if (e.kind == obs::EventKind::kNodeDeclaredDead) declared[e.node] = e.t;
  }
  std::size_t checked = 0;
  for (std::size_t n = 0; n < cluster.worker_count(); ++n) {
    const auto node = static_cast<NodeId>(n);
    if (cluster.topology().rack_of(node) != rack) {
      EXPECT_EQ(declared.count(node), 0u) << "node " << n;
      continue;
    }
    ASSERT_FALSE(phase.on(n, cut));
    const SimTime last = phase.before(n, cut);
    // The monitor ticks at whole intervals; the first one past the timeout.
    SimTime tick = interval;
    while (tick < cut || tick - last <= timeout) tick += interval;
    ASSERT_LT(tick, result.makespan) << "the run ended before the tick";
    ASSERT_EQ(declared.count(node), 1u) << "node " << n;
    EXPECT_EQ(declared[node], tick) << "node " << n;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(HeartbeatTiming, MakespanIsTheLastFinalBeatAfterTheLastCompletion) {
  for (const auto sched :
       {cluster::SchedulerKind::kFifo, cluster::SchedulerKind::kFair}) {
    const auto opts = cluster::paper_defaults(
        net::ec2_profile(24), sched, cluster::PolicyKind::kElephantTrap, 42);
    const auto result =
        cluster::run_once(opts, cluster::standard_wl1(24, 120, 1));
    const PhasePoints phase{opts.heartbeat_interval, 23};
    SimTime last_completion = 0;
    for (const auto& job : result.jobs) {
      last_completion = std::max(last_completion, job.completion);
    }
    SimTime last_beat = 0;
    for (std::size_t n = 0; n < 23; ++n) {
      ASSERT_FALSE(phase.on(n, last_completion));
      last_beat = std::max(last_beat, phase.at_or_after(n, last_completion));
    }
    EXPECT_EQ(result.makespan, last_beat);
  }
}

}  // namespace
}  // namespace dare::storage
