#include "storage/namenode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dare::storage {
namespace {

class NameNodeTest : public ::testing::Test {
 protected:
  Rng rng_{21};
};

TEST_F(NameNodeTest, CreateFileAssignsSequentialBlocks) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 4, 128 * kMiB, 3, 7);
  const auto& info = nn.file(f);
  EXPECT_EQ(info.name, "a");
  EXPECT_EQ(info.blocks.size(), 4u);
  EXPECT_EQ(info.block_size, 128 * kMiB);
  EXPECT_EQ(info.created, 7);
  EXPECT_EQ(info.total_bytes(), 4 * 128 * kMiB);
  for (BlockId b : info.blocks) {
    EXPECT_EQ(nn.block(b).file, f);
    EXPECT_EQ(nn.block(b).size, 128 * kMiB);
  }
}

TEST_F(NameNodeTest, PlacementUsesDistinctNodes) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 20, kMiB, 3, 0);
  for (BlockId b : nn.file(f).blocks) {
    const auto& locs = nn.locations(b);
    EXPECT_EQ(locs.size(), 3u);
    std::set<NodeId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), 3u);
    for (NodeId n : locs) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 10);
    }
  }
}

TEST_F(NameNodeTest, ReplicationClampedToClusterSize) {
  NameNode nn(2, nullptr, rng_);
  const FileId f = nn.create_file("a", 1, kMiB, 5, 0);
  EXPECT_EQ(nn.locations(nn.file(f).blocks[0]).size(), 2u);
}

TEST_F(NameNodeTest, LiveNodeCountTracksFailRejoinAndDoubleFail) {
  NameNode nn(5, nullptr, rng_);
  const FileId f = nn.create_file("a", 3, kMiB, 3, 0);
  EXPECT_EQ(nn.live_node_count(), 5u);
  nn.node_failed(1);
  EXPECT_EQ(nn.live_node_count(), 4u);
  nn.node_failed(1);  // a repeated declaration is a no-op
  EXPECT_EQ(nn.live_node_count(), 4u);
  nn.node_failed(3);
  EXPECT_EQ(nn.live_node_count(), 3u);
  nn.node_rejoined(1, {}, {});
  EXPECT_EQ(nn.live_node_count(), 4u);
  // Placement sees the count: with one node down, a factor-5 file still
  // lands on the 4 live nodes only.
  const FileId g = nn.create_file("b", 2, kMiB, 5, 0);
  for (BlockId b : nn.file(g).blocks) {
    const auto& locs = nn.locations(b);
    EXPECT_EQ(locs.size(), 4u);
    EXPECT_EQ(std::count(locs.begin(), locs.end(), 3), 0);
  }
  // A block that lost a replica is under-replicated against the live count.
  for (BlockId b : nn.file(f).blocks) {
    EXPECT_EQ(nn.is_under_replicated(b), nn.static_locations(b).size() < 3)
        << "block " << b;
  }
}

TEST_F(NameNodeTest, RackAwarePlacementCoversTwoRacks) {
  net::TopologyOptions topo_opts;
  topo_opts.kind = net::TopologyKind::kMultiTier;
  topo_opts.nodes = 12;
  topo_opts.racks = 4;
  net::Topology topo(topo_opts, rng_);
  NameNode nn(12, &topo, rng_);
  const FileId f = nn.create_file("a", 30, kMiB, 3, 0);
  int two_rack_placements = 0;
  for (BlockId b : nn.file(f).blocks) {
    std::set<RackId> racks;
    for (NodeId n : nn.locations(b)) racks.insert(topo.rack_of(n));
    if (racks.size() >= 2) ++two_rack_placements;
  }
  // The policy tries hard to cover two racks (falls back only when random
  // search fails); expect the vast majority of placements succeed.
  EXPECT_GE(two_rack_placements, 27);
}

TEST_F(NameNodeTest, DynamicAddExtendsLocations) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 1, kMiB, 3, 0);
  const BlockId b = nn.file(f).blocks[0];
  // Find a node not already hosting the block.
  NodeId extra = 0;
  while (std::find(nn.locations(b).begin(), nn.locations(b).end(), extra) !=
         nn.locations(b).end()) {
    ++extra;
  }
  nn.report_dynamic_added(extra, {b});
  EXPECT_EQ(nn.replica_count(b), 4u);
  EXPECT_EQ(nn.dynamic_replica_count(), 1u);
  EXPECT_NE(std::find(nn.locations(b).begin(), nn.locations(b).end(), extra),
            nn.locations(b).end());
}

TEST_F(NameNodeTest, DuplicateDynamicAddIgnored) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 1, kMiB, 3, 0);
  const BlockId b = nn.file(f).blocks[0];
  nn.report_dynamic_added(9, {b});
  nn.report_dynamic_added(9, {b});
  EXPECT_EQ(nn.replica_count(b), 4u);
  EXPECT_EQ(nn.dynamic_replica_count(), 1u);
}

TEST_F(NameNodeTest, DynamicRemoveDropsOnlyDynamicReplica) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 1, kMiB, 3, 0);
  const BlockId b = nn.file(f).blocks[0];
  const NodeId static_holder = nn.static_locations(b)[0];
  nn.report_dynamic_added(9, {b});
  // Removing the static holder is refused (only dynamic replicas go away).
  nn.report_dynamic_removed(static_holder, {b});
  EXPECT_EQ(nn.replica_count(b), 4u);
  nn.report_dynamic_removed(9, {b});
  EXPECT_EQ(nn.replica_count(b), 3u);
  EXPECT_EQ(nn.dynamic_replica_count(), 0u);
}

TEST_F(NameNodeTest, RemoveOfAbsentReplicaIgnored) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 1, kMiB, 3, 0);
  const BlockId b = nn.file(f).blocks[0];
  nn.report_dynamic_removed(9, {b});  // no-op
  EXPECT_EQ(nn.replica_count(b), 3u);
}

TEST_F(NameNodeTest, UnknownIdsThrow) {
  NameNode nn(4, nullptr, rng_);
  nn.create_file("a", 1, kMiB, 3, 0);  // file 0, block 0
  // Negative, one past the last id, and far past it.
  for (const std::int64_t id : {-1, 1, 99}) {
    SCOPED_TRACE("id " + std::to_string(id));
    EXPECT_THROW(nn.file(id), std::out_of_range);
    EXPECT_THROW(nn.block(id), std::out_of_range);
    EXPECT_THROW(nn.locations(id), std::out_of_range);
    EXPECT_THROW(nn.static_locations(id), std::out_of_range);
    EXPECT_THROW(nn.is_under_replicated(id), std::out_of_range);
    EXPECT_THROW(nn.report_dynamic_added(0, {id}), std::out_of_range);
    EXPECT_THROW(nn.report_dynamic_removed(0, {id}), std::out_of_range);
    EXPECT_THROW(nn.report_bad_block(id, 0), std::out_of_range);
    EXPECT_THROW(nn.add_repair_replica(id, 0), std::out_of_range);
  }
  try {
    nn.file(-1);
    ADD_FAILURE() << "file(-1) did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "NameNode: unknown file");
  }
}

TEST_F(NameNodeTest, InvalidCreateArgumentsThrow) {
  NameNode nn(4, nullptr, rng_);
  EXPECT_THROW(nn.create_file("a", 0, kMiB, 3, 0), std::invalid_argument);
  EXPECT_THROW(nn.create_file("a", 1, 0, 3, 0), std::invalid_argument);
  EXPECT_THROW(NameNode(0, nullptr, rng_), std::invalid_argument);
}

TEST_F(NameNodeTest, AllFilesInCreationOrder) {
  NameNode nn(4, nullptr, rng_);
  const FileId a = nn.create_file("a", 2, kMiB, 3, 0);
  const FileId b = nn.create_file("b", 1, kMiB, 3, 0);
  const auto files = nn.all_files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], a);
  EXPECT_EQ(files[1], b);
  EXPECT_EQ(nn.file_count(), 2u);
  EXPECT_EQ(nn.block_count(), 3u);
  // Ids are dense and in creation order, files and blocks alike.
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(nn.file(a).blocks, (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(nn.file(b).blocks, (std::vector<BlockId>{2}));
}

TEST_F(NameNodeTest, StaticLocationsStableAfterDynamicChanges) {
  NameNode nn(10, nullptr, rng_);
  const FileId f = nn.create_file("a", 1, kMiB, 3, 0);
  const BlockId b = nn.file(f).blocks[0];
  const auto before = nn.static_locations(b);
  nn.report_dynamic_added(9, {b});
  nn.report_dynamic_removed(9, {b});
  EXPECT_EQ(nn.static_locations(b), before);
}

/// The replica-observer contract the locality index relies on: a delta
/// comes after its mutation and before the next one, so at every
/// notification locations(b) equals a model built from the deltas alone,
/// node for node and in order. Drives every path that fires a delta, and
/// the reports that must fire none.
TEST_F(NameNodeTest, ObserverSeesEachMutationInLocations) {
  NameNode nn(4, nullptr, rng_);
  std::map<BlockId, std::vector<NodeId>> model;
  std::size_t deltas = 0;
  std::vector<BlockId> removals;  // block of each removal delta, in order
  nn.set_replica_observer([&](BlockId b, NodeId n, bool added) {
    ++deltas;
    if (!added) removals.push_back(b);
    auto& nodes = model[b];
    const auto pos = std::find(nodes.begin(), nodes.end(), n);
    if (added) {
      EXPECT_EQ(pos, nodes.end()) << "duplicate add, block " << b;
      nodes.push_back(n);
    } else {
      ASSERT_NE(pos, nodes.end()) << "removal of an absent replica";
      nodes.erase(pos);
    }
    EXPECT_EQ(nn.locations(b), nodes)
        << "block " << b << " at delta " << deltas;
  });
  const auto holds = [&](BlockId b, NodeId n) {
    const auto& locs = nn.locations(b);
    return std::find(locs.begin(), locs.end(), n) != locs.end();
  };

  const FileId fid = nn.create_file("f", 3, kMiB, 3, 0);
  EXPECT_EQ(deltas, 9u);
  const BlockId b0 = nn.file(fid).blocks[0];

  // A duplicate add and a missing remove fire nothing.
  NodeId spare = 0;
  while (holds(b0, spare)) ++spare;
  nn.report_dynamic_added(spare, {b0});
  nn.report_dynamic_added(spare, {b0});
  EXPECT_EQ(deltas, 10u);
  nn.report_dynamic_removed(spare, {b0});
  nn.report_dynamic_removed(spare, {b0});
  EXPECT_EQ(deltas, 11u);

  // Death drops every replica on the victim; a repair restores b0's factor
  // on the spare node.
  const NodeId victim = nn.locations(b0).front();
  std::vector<BlockId> victim_statics;
  for (BlockId b : nn.file(fid).blocks) {
    if (holds(b, victim)) victim_statics.push_back(b);
  }
  ASSERT_GE(victim_statics.size(), 2u);
  removals.clear();
  nn.node_failed(victim);
  EXPECT_EQ(deltas, 11u + victim_statics.size());
  // The death notifies in ascending block order (a file's blocks ascend).
  EXPECT_EQ(removals, victim_statics);
  ASSERT_TRUE(nn.add_repair_replica(b0, spare));

  // Rejoin re-adopts the stale copies still needed and prunes b0's.
  const std::size_t before_rejoin = deltas;
  const auto report = nn.node_rejoined(victim, victim_statics, {});
  EXPECT_EQ(report.pruned_static, std::vector<BlockId>{b0});
  EXPECT_EQ(report.adopted_static, victim_statics.size() - 1);
  EXPECT_EQ(deltas, before_rejoin + report.adopted_static);

  // A bad block is quarantined with one delta; a last replica is kept.
  const std::size_t before_quarantine = deltas;
  EXPECT_EQ(nn.report_bad_block(b0, spare),
            NameNode::BadBlockResult::kQuarantined);
  EXPECT_EQ(deltas, before_quarantine + 1);
  const BlockId lone = nn.file(nn.create_file("g", 1, kMiB, 1, 0)).blocks[0];
  const std::size_t before_last = deltas;
  EXPECT_EQ(nn.report_bad_block(lone, nn.locations(lone).front()),
            NameNode::BadBlockResult::kLastReplica);
  EXPECT_EQ(deltas, before_last);

  for (FileId f : nn.all_files()) {
    for (BlockId b : nn.file(f).blocks) {
      EXPECT_EQ(nn.locations(b), model[b]) << "block " << b;
    }
  }
}

}  // namespace
}  // namespace dare::storage
