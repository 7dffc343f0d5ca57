// Tests for the DNA_DYNREPL metadata pipeline: a dynamic replica exists on
// the data node the moment the policy captures it, but only becomes visible
// to the name node — and hence to the scheduler — at the node's next
// heartbeat; evictions propagate the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "net/profile.h"
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

}  // namespace
}  // namespace dare::storage
