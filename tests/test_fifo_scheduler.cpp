#include "sched/fifo_scheduler.h"

#include <gtest/gtest.h>

#include "fake_block_map.h"
#include "sched/locality_index.h"

namespace dare::sched {
namespace {

JobSpec make_job(JobId id, std::size_t maps, BlockId first_block,
                 std::size_t reduces = 1) {
  JobSpec spec;
  spec.id = id;
  spec.arrival = 10 * id;
  for (std::size_t i = 0; i < maps; ++i) {
    spec.maps.push_back(
        MapTaskSpec{first_block + static_cast<BlockId>(i), 128, 1000});
  }
  spec.reduces = reduces;
  return spec;
}

/// One node per rack, so rack-local equals node-local (no rack
/// information); add_replica() places a block on a node.
class FifoTest : public ::testing::Test {
 protected:
  FifoTest() { jobs_.attach_locality_index(&index_); }
  void add_replica(NodeId node, BlockId block) {
    blocks_.add(index_, block, node);
  }

  FifoScheduler sched_;
  FakeBlockMap blocks_;
  LocalityIndex index_{4, {0, 1, 2, 3}, 4, blocks_.source()};
  JobTable jobs_;
};

TEST_F(FifoTest, NoJobsNoSelection) {
  EXPECT_FALSE(sched_.select_map(0, 0, jobs_).has_value());
  EXPECT_FALSE(sched_.select_reduce(jobs_).has_value());
}

TEST_F(FifoTest, HeadOfLineJobServedFirst) {
  jobs_.add_job(make_job(1, 1, 100));
  jobs_.add_job(make_job(2, 1, 200));
  const auto sel = sched_.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 1);
}

TEST_F(FifoTest, PrefersLocalTaskWithinHeadJob) {
  jobs_.add_job(make_job(1, 3, 100));
  add_replica(0, 102);
  const auto sel = sched_.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_TRUE(sel->node_local());
  const auto& rt = jobs_.job(1);
  EXPECT_EQ(rt.spec.maps[rt.pending_maps[sel->pending_index]].block, 102);
}

TEST_F(FifoTest, LaunchesNonLocalImmediatelyWhenNoLocalWork) {
  jobs_.add_job(make_job(1, 2, 100));
  add_replica(1, 100);  // local only on another node
  const auto sel = sched_.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_FALSE(sel->node_local());  // FIFO never waits
  EXPECT_EQ(sel->job, 1);
}

TEST_F(FifoTest, NeverSkipsToLaterJobWhileHeadHasPendingMaps) {
  jobs_.add_job(make_job(1, 1, 100));
  jobs_.add_job(make_job(2, 1, 200));
  add_replica(0, 200);  // job 2 would be local here
  const auto sel = sched_.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 1);  // strict FIFO
  EXPECT_FALSE(sel->node_local());
}

TEST_F(FifoTest, MovesToNextJobWhenHeadFullyLaunched) {
  jobs_.add_job(make_job(1, 1, 100));
  jobs_.add_job(make_job(2, 1, 200));
  const auto first = sched_.select_map(0, 0, jobs_);
  jobs_.launch_map(first->job, first->pending_index, first->locality);
  const auto second = sched_.select_map(0, 0, jobs_);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->job, 2);
}

TEST_F(FifoTest, ReduceOnlyAfterMapsDone) {
  jobs_.add_job(make_job(1, 1, 100));
  EXPECT_FALSE(sched_.select_reduce(jobs_).has_value());
  jobs_.launch_map(1, 0, Locality::kNodeLocal);
  EXPECT_FALSE(sched_.select_reduce(jobs_).has_value());
  jobs_.complete_map(1, 1);
  const auto r = sched_.select_reduce(jobs_);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 1);
}

TEST_F(FifoTest, ReducesServedInArrivalOrder) {
  jobs_.add_job(make_job(1, 1, 100, 2));
  jobs_.add_job(make_job(2, 1, 200, 2));
  for (JobId j : {JobId{1}, JobId{2}}) {
    jobs_.launch_map(j, 0, Locality::kNodeLocal);
    jobs_.complete_map(j, 1);
  }
  EXPECT_EQ(*sched_.select_reduce(jobs_), 1);
  jobs_.launch_reduce(1);
  EXPECT_EQ(*sched_.select_reduce(jobs_), 1);  // still has a pending reduce
  jobs_.launch_reduce(1);
  EXPECT_EQ(*sched_.select_reduce(jobs_), 2);
}

TEST_F(FifoTest, SchedulerReportsName) { EXPECT_EQ(sched_.name(), "fifo"); }

}  // namespace
}  // namespace dare::sched
