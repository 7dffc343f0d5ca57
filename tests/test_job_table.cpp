#include "sched/job_table.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fake_block_map.h"
#include "sched/locality_index.h"

namespace dare::sched {
namespace {

JobSpec make_job(JobId id, std::size_t maps, std::size_t reduces = 1,
                 BlockId first_block = 100) {
  JobSpec spec;
  spec.id = id;
  spec.arrival = 10 * id;
  spec.input_file = id;
  for (std::size_t i = 0; i < maps; ++i) {
    spec.maps.push_back(
        MapTaskSpec{first_block + static_cast<BlockId>(i), 128, 1000});
  }
  spec.reduces = reduces;
  return spec;
}

/// A table with its required locality index: 4 nodes, one per rack.
class JobTableTest : public ::testing::Test {
 protected:
  JobTableTest() { table.attach_locality_index(&index); }
  FakeBlockMap blocks;
  LocalityIndex index{4, {0, 1, 2, 3}, 4, blocks.source()};
  JobTable table;
};

TEST(JobTableIndex, AddJobWithoutIndexThrows) {
  JobTable table;
  EXPECT_THROW(table.add_job(make_job(1, 1)), std::logic_error);
  EXPECT_TRUE(table.active_jobs().empty());
}

TEST_F(JobTableTest, AddJobInitializesState) {
  table.add_job(make_job(1, 3, 2));
  const auto& rt = table.job(1);
  EXPECT_EQ(rt.pending_maps.size(), 3u);
  EXPECT_EQ(rt.pending_reduces, 2u);
  EXPECT_EQ(rt.running_maps, 0u);
  EXPECT_FALSE(rt.maps_done());
  EXPECT_FALSE(rt.done());
  EXPECT_EQ(table.total_pending_maps(), 3u);
  EXPECT_EQ(table.total_pending_reduces(), 2u);
  EXPECT_FALSE(table.all_done());
}

TEST_F(JobTableTest, DuplicateAndInvalidJobsRejected) {
  table.add_job(make_job(1, 1));
  EXPECT_THROW(table.add_job(make_job(1, 1)), std::logic_error);
  JobSpec no_maps = make_job(2, 1);
  no_maps.maps.clear();
  EXPECT_THROW(table.add_job(no_maps), std::invalid_argument);
  JobSpec bad_id = make_job(kInvalidJob, 1);
  EXPECT_THROW(table.add_job(bad_id), std::invalid_argument);
}

TEST_F(JobTableTest, MapLifecycle) {
  table.add_job(make_job(1, 2, 1));
  const std::size_t idx = table.launch_map(1, 0, Locality::kNodeLocal);
  EXPECT_LT(idx, 2u);
  EXPECT_EQ(table.job(1).running_maps, 1u);
  EXPECT_EQ(table.job(1).local_launches, 1u);
  EXPECT_EQ(table.total_pending_maps(), 1u);
  table.complete_map(1, 50);
  EXPECT_EQ(table.job(1).completed_maps, 1u);
  EXPECT_FALSE(table.job(1).maps_done());
  table.launch_map(1, 0, Locality::kOffRack);
  EXPECT_EQ(table.job(1).remote_launches, 1u);
  table.complete_map(1, 60);
  EXPECT_TRUE(table.job(1).maps_done());
}

TEST_F(JobTableTest, ReduceGatedOnMapsDone) {
  table.add_job(make_job(1, 1, 1));
  EXPECT_THROW(table.launch_reduce(1), std::logic_error);
  table.launch_map(1, 0, Locality::kNodeLocal);
  table.complete_map(1, 5);
  table.launch_reduce(1);
  EXPECT_EQ(table.job(1).running_reduces, 1u);
  table.complete_reduce(1, 42);
  EXPECT_TRUE(table.job(1).done());
  EXPECT_EQ(table.job(1).completion, 42);
  EXPECT_TRUE(table.all_done());
}

TEST_F(JobTableTest, ZeroReduceJobCompletesWithLastMap) {
  table.add_job(make_job(1, 1, /*reduces=*/0));
  table.launch_map(1, 0, Locality::kNodeLocal);
  table.complete_map(1, 33);
  EXPECT_TRUE(table.job(1).done());
  EXPECT_EQ(table.job(1).completion, 33);
  EXPECT_TRUE(table.active_jobs().empty());
}

TEST_F(JobTableTest, ActiveJobsShrinkOnCompletion) {
  table.add_job(make_job(1, 1, 1));
  table.add_job(make_job(2, 1, 1));
  EXPECT_EQ(table.active_jobs().size(), 2u);
  table.launch_map(1, 0, Locality::kNodeLocal);
  table.complete_map(1, 1);
  table.launch_reduce(1);
  table.complete_reduce(1, 2);
  ASSERT_EQ(table.active_jobs().size(), 1u);
  EXPECT_EQ(table.active_jobs().front(), 2);
  EXPECT_EQ(table.all_jobs().size(), 2u);
}

TEST_F(JobTableTest, ReduceReadyTracksTransitions) {
  table.add_job(make_job(1, 1, /*reduces=*/2));
  table.add_job(make_job(2, 1, /*reduces=*/1));
  EXPECT_TRUE(table.reduce_ready().empty());

  // Job 2 finishes its map first but must sort after job 1 when job 1
  // becomes ready too (arrival order).
  table.launch_map(2, 0, Locality::kNodeLocal);
  table.complete_map(2, 1);
  ASSERT_EQ(table.reduce_ready().size(), 1u);
  EXPECT_EQ(table.reduce_ready().begin()->second->spec.id, 2);

  table.launch_map(1, 0, Locality::kNodeLocal);
  table.complete_map(1, 2);
  ASSERT_EQ(table.reduce_ready().size(), 2u);
  EXPECT_EQ(table.reduce_ready().begin()->second->spec.id, 1);

  // Launching the last pending reduce drops the job; a requeue re-adds it.
  table.launch_reduce(2);
  EXPECT_EQ(table.reduce_ready().size(), 1u);
  table.requeue_running_reduce(2);
  EXPECT_EQ(table.reduce_ready().size(), 2u);
  table.launch_reduce(2);

  // Job 1 keeps one pending reduce after the first launch, so it stays.
  table.launch_reduce(1);
  ASSERT_EQ(table.reduce_ready().size(), 1u);
  EXPECT_EQ(table.reduce_ready().begin()->second->spec.id, 1);
  table.launch_reduce(1);
  EXPECT_TRUE(table.reduce_ready().empty());

  // Retirement (here via fail) erases any residual membership.
  table.requeue_running_reduce(1);
  EXPECT_EQ(table.reduce_ready().size(), 1u);
  table.fail_job(1, 9);
  EXPECT_TRUE(table.reduce_ready().empty());
}

TEST_F(JobTableTest, FindLocalMapUsesIndex) {
  table.add_job(make_job(1, 3, 1, /*first_block=*/100));
  blocks.add(index, 101, 0);
  const auto& rt = table.job(1);
  const auto found = table.find_local_map(rt, 0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(rt.spec.maps[rt.pending_maps[*found]].block, 101);
  EXPECT_FALSE(table.find_local_map(rt, 1).has_value());
}

TEST_F(JobTableTest, FindLocalMapReturnsNulloptWhenNoneLocal) {
  table.add_job(make_job(1, 3, 1, 100));
  blocks.add(index, 999, 0);
  EXPECT_FALSE(table.find_local_map(table.job(1), 0).has_value());
}

TEST_F(JobTableTest, CountersNeverUnderflow) {
  table.add_job(make_job(1, 1, 1));
  EXPECT_THROW(table.complete_map(1, 0), std::logic_error);
  EXPECT_THROW(table.complete_reduce(1, 0), std::logic_error);
  EXPECT_THROW(table.launch_map(1, 5, Locality::kNodeLocal), std::out_of_range);
}

TEST_F(JobTableTest, UnknownJobThrows) {
  EXPECT_THROW(table.job(9), std::out_of_range);
  EXPECT_FALSE(table.has_job(9));
}

TEST_F(JobTableTest, RunningTotalsTrackAllJobs) {
  table.add_job(make_job(1, 2, 1));
  table.add_job(make_job(2, 2, 1, 200));
  table.launch_map(1, 0, Locality::kNodeLocal);
  table.launch_map(2, 0, Locality::kOffRack);
  EXPECT_EQ(table.total_running(), 2u);
  EXPECT_EQ(table.total_pending_maps(), 2u);
  table.complete_map(1, 1);
  EXPECT_EQ(table.total_running(), 1u);
}

}  // namespace
}  // namespace dare::sched
