#include "storage/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace dare::storage {
namespace {

std::vector<bool> all_alive(std::size_t n) { return std::vector<bool>(n, true); }

/// The live count the name node keeps beside its alive vector.
std::size_t live(const std::vector<bool>& alive) {
  return static_cast<std::size_t>(
      std::count(alive.begin(), alive.end(), true));
}

TEST(RandomPlacement, DistinctLiveNodes) {
  Rng rng(1);
  RandomPlacement policy(10);
  const auto alive = all_alive(10);
  for (int i = 0; i < 200; ++i) {
    const auto nodes = policy.place(3, alive, live(alive), rng);
    ASSERT_EQ(nodes.size(), 3u);
    std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), 3u);
    for (NodeId n : nodes) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 10);
    }
  }
}

TEST(RandomPlacement, ClampsToLiveNodeCount) {
  Rng rng(2);
  RandomPlacement policy(4);
  auto alive = all_alive(4);
  alive[1] = false;
  alive[3] = false;
  const auto nodes = policy.place(3, alive, live(alive), rng);
  EXPECT_EQ(nodes.size(), 2u);
  for (NodeId n : nodes) {
    EXPECT_TRUE(n == 0 || n == 2);
  }
}

TEST(RandomPlacement, SkipsDeadNodes) {
  Rng rng(3);
  RandomPlacement policy(8);
  auto alive = all_alive(8);
  alive[5] = false;
  for (int i = 0; i < 200; ++i) {
    for (NodeId n : policy.place(3, alive, live(alive), rng)) {
      EXPECT_NE(n, 5);
    }
  }
}

TEST(RandomPlacement, ErrorsOnBadInput) {
  Rng rng(4);
  RandomPlacement policy(4);
  EXPECT_THROW(policy.place(3, all_alive(5), 5, rng), std::invalid_argument);
  EXPECT_THROW(policy.place(3, std::vector<bool>(4, false), 0, rng),
               std::logic_error);
}

TEST(RandomPlacement, ApproximatelyUniform) {
  Rng rng(5);
  RandomPlacement policy(10);
  const auto alive = all_alive(10);
  std::vector<int> counts(10, 0);
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    for (NodeId n : policy.place(3, alive, live(alive), rng)) {
      ++counts[static_cast<std::size_t>(n)];
    }
  }
  const double expected = trials * 3.0 / 10.0;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.15);
  }
}

class RackAwareTest : public ::testing::Test {
 protected:
  RackAwareTest() {
    net::TopologyOptions opts;
    opts.kind = net::TopologyKind::kMultiTier;
    opts.nodes = 12;
    opts.racks = 4;
    Rng topo_rng(6);
    topo_ = std::make_unique<net::Topology>(opts, topo_rng);
  }
  std::unique_ptr<net::Topology> topo_;
};

TEST_F(RackAwareTest, SecondReplicaPrefersAnotherRack) {
  Rng rng(7);
  RackAwarePlacement policy(*topo_);
  const auto alive = all_alive(12);
  int off_rack_seconds = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    const auto nodes = policy.place(3, alive, live(alive), rng);
    ASSERT_EQ(nodes.size(), 3u);
    if (!topo_->same_rack(nodes[0], nodes[1])) ++off_rack_seconds;
  }
  // Unless the placement is rack-starved (it is not, with 4 racks), the
  // second replica always lands off-rack.
  EXPECT_GT(off_rack_seconds, trials * 9 / 10);
}

TEST_F(RackAwareTest, PlacementsAreDistinct) {
  Rng rng(8);
  RackAwarePlacement policy(*topo_);
  const auto alive = all_alive(12);
  for (int i = 0; i < 300; ++i) {
    const auto nodes = policy.place(4, alive, live(alive), rng);
    std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), nodes.size());
  }
}

TEST_F(RackAwareTest, CoversTwoRacksForAvailability) {
  Rng rng(9);
  RackAwarePlacement policy(*topo_);
  const auto alive = all_alive(12);
  for (int i = 0; i < 300; ++i) {
    const auto nodes = policy.place(3, alive, live(alive), rng);
    std::set<RackId> racks;
    for (NodeId n : nodes) racks.insert(topo_->rack_of(n));
    EXPECT_GE(racks.size(), 2u);
  }
}

TEST_F(RackAwareTest, SurvivesDeadNodes) {
  Rng rng(10);
  RackAwarePlacement policy(*topo_);
  auto alive = all_alive(12);
  for (NodeId n = 0; n < 8; ++n) alive[static_cast<std::size_t>(n)] = false;
  const auto nodes = policy.place(3, alive, live(alive), rng);
  EXPECT_LE(nodes.size(), 4u);
  for (NodeId n : nodes) EXPECT_GE(n, 8);
}

TEST(DefaultPlacement, PicksByTopology) {
  EXPECT_EQ(default_placement(10, nullptr)->name(), "random");

  net::TopologyOptions single;
  single.nodes = 10;
  Rng rng(11);
  net::Topology one_rack(single, rng);
  EXPECT_EQ(default_placement(10, &one_rack)->name(), "random");

  net::TopologyOptions multi;
  multi.kind = net::TopologyKind::kMultiTier;
  multi.nodes = 10;
  multi.racks = 3;
  net::Topology racks(multi, rng);
  EXPECT_EQ(default_placement(10, &racks)->name(), "rack-aware");
}

}  // namespace
}  // namespace dare::storage
