#include "core/scarlett.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dare::core {
namespace {

ScarlettParams params(double accesses_per_replica = 4.0, int cap = 10) {
  ScarlettParams p;
  p.accesses_per_replica = accesses_per_replica;
  p.max_replication = cap;
  return p;
}

TEST(Scarlett, NoAccessesNoOrders) {
  ScarlettPlanner planner(params());
  const auto orders = planner.plan_epoch(kGiB, {kMiB}, {3});
  EXPECT_TRUE(orders.empty());
}

TEST(Scarlett, PopularFileGetsMoreReplicas) {
  ScarlettPlanner planner(params(4.0));
  for (int i = 0; i < 16; ++i) planner.record_access(0);
  const auto orders = planner.plan_epoch(kGiB, {kMiB}, {3});
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].file, 0);
  EXPECT_EQ(orders[0].current_replication, 3);
  // 16 accesses / 4 per replica = 4 -> target = 3 + 4 - 1 = 6.
  EXPECT_EQ(orders[0].target_replication, 6);
}

TEST(Scarlett, FewAccessesYieldNoIncrease) {
  ScarlettPlanner planner(params(4.0));
  planner.record_access(0);  // ceil(1/4) = 1 -> target = current
  const auto orders = planner.plan_epoch(kGiB, {kMiB}, {3});
  EXPECT_TRUE(orders.empty());
}

TEST(Scarlett, ReplicationCapRespected) {
  ScarlettPlanner planner(params(1.0, 5));
  for (int i = 0; i < 100; ++i) planner.record_access(0);
  const auto orders = planner.plan_epoch(kGiB, {kMiB}, {3});
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].target_replication, 5);
}

TEST(Scarlett, BudgetLimitsOrders) {
  ScarlettPlanner planner(params(1.0));
  for (int i = 0; i < 8; ++i) planner.record_access(0);
  // Each extra replica costs 100 bytes; budget 150 cannot afford any
  // multi-replica plan for this file (needs several replicas).
  const auto orders = planner.plan_epoch(150, {Bytes{100}}, {3});
  EXPECT_TRUE(orders.empty());
}

TEST(Scarlett, MostPopularFileWinsBudget) {
  ScarlettPlanner planner(params(4.0));
  for (int i = 0; i < 8; ++i) planner.record_access(0);
  for (int i = 0; i < 16; ++i) planner.record_access(1);
  // Budget affords only one file's expansion; file 1 (more accesses) wins.
  const std::vector<Bytes> sizes{Bytes{100}, Bytes{100}};
  const std::vector<int> repl{3, 3};
  const auto orders = planner.plan_epoch(300, sizes, repl);
  ASSERT_GE(orders.size(), 1u);
  EXPECT_EQ(orders[0].file, 1);
}

TEST(Scarlett, WindowResetsAfterPlanning) {
  ScarlettPlanner planner(params());
  for (int i = 0; i < 16; ++i) planner.record_access(0);
  EXPECT_EQ(planner.window_accesses(), 16u);
  (void)planner.plan_epoch(kGiB, {kMiB}, {3});
  EXPECT_EQ(planner.window_accesses(), 0u);
  // A second epoch with no accesses produces nothing.
  const auto orders = planner.plan_epoch(kGiB, {kMiB}, {3});
  EXPECT_TRUE(orders.empty());
}

TEST(Scarlett, UnknownFilesSkipped) {
  ScarlettPlanner planner(params(1.0));
  for (int i = 0; i < 10; ++i) planner.record_access(42);
  const auto orders = planner.plan_epoch(kGiB, {kMiB}, {3});
  EXPECT_TRUE(orders.empty());
  EXPECT_THROW(planner.record_access(kInvalidFile), std::out_of_range);
}

}  // namespace
}  // namespace dare::core
