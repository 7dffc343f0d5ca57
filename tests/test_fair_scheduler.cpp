#include "sched/fair_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/trace_collector.h"
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
class FairTest : public ::testing::Test {
 protected:
  FairTest() { jobs_.attach_locality_index(&index_); }
  void add_replica(NodeId node, BlockId block) {
    index_.replica_added(block, node);
  }

  LocalityIndex index_{4, {0, 1, 2, 3}, 4};
  JobTable jobs_;
};

TEST(FairScheduler, RejectsNegativeDelay) {
  EXPECT_THROW(FairScheduler(-1), std::invalid_argument);
}

TEST_F(FairTest, LocalTaskSelectedImmediately) {
  FairScheduler sched(from_seconds(5.0));
  jobs_.add_job(make_job(1, 2, 100));
  add_replica(0, 101);
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_TRUE(sel->node_local());
  EXPECT_EQ(jobs_.job(1).waiting_since, kTimeNever);
}

TEST_F(FairTest, DelaysNonLocalLaunchUntilWindowExpires) {
  // Two-level delay: wait up to 2 s for node locality, then (with no
  // rack-local option either) a further 1 s before going off-rack.
  FairScheduler sched(from_seconds(2.0), from_seconds(1.0));
  jobs_.add_job(make_job(1, 1, 100));
  // No locality anywhere: opportunities inside the window are declined.
  EXPECT_FALSE(sched.select_map(0, from_seconds(10.0), jobs_));
  EXPECT_EQ(jobs_.job(1).waiting_since, from_seconds(10.0));
  EXPECT_FALSE(sched.select_map(1, from_seconds(11.0), jobs_));
  EXPECT_FALSE(sched.select_map(2, from_seconds(12.5), jobs_));
  // Both windows expired: launch off-rack, clock reset.
  const auto sel = sched.select_map(0, from_seconds(13.0), jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->locality, Locality::kOffRack);
  EXPECT_EQ(jobs_.job(1).waiting_since, kTimeNever);
}

TEST(FairScheduler, RackLocalAcceptedAfterFirstDelayLevel) {
  // Nodes 0 and 1 share a rack; block 100 lives on node 1, so it is in
  // node 0's rack but not on node 0 itself.
  LocalityIndex index(2, {0, 0}, 1);
  JobTable jobs;
  jobs.attach_locality_index(&index);
  index.replica_added(100, 1);
  FairScheduler sched(from_seconds(2.0), from_seconds(50.0));
  jobs.add_job(make_job(1, 1, 100));
  EXPECT_FALSE(sched.select_map(0, from_seconds(1.0), jobs));
  // After the node-level delay, the rack-local launch is accepted long
  // before the rack-level delay would allow off-rack.
  const auto sel = sched.select_map(0, from_seconds(3.5), jobs);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->locality, Locality::kRackLocal);
}

TEST_F(FairTest, ZeroDelayBehavesGreedily) {
  FairScheduler sched(0);
  jobs_.add_job(make_job(1, 1, 100));
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_FALSE(sel->node_local());
}

TEST_F(FairTest, SkippedJobLetsNextJobRun) {
  FairScheduler sched(from_seconds(5.0));
  jobs_.add_job(make_job(1, 1, 100));
  jobs_.add_job(make_job(2, 1, 200));
  add_replica(0, 200);  // only job 2 has local work on node 0
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 2);
  EXPECT_TRUE(sel->node_local());
  EXPECT_NE(jobs_.job(1).waiting_since, kTimeNever);  // job 1 is waiting
}

TEST_F(FairTest, FairnessPrefersJobWithFewerRunningMaps) {
  FairScheduler sched(0);
  jobs_.add_job(make_job(1, 5, 100));
  jobs_.add_job(make_job(2, 5, 200));
  // Give job 1 two running maps.
  jobs_.launch_map(1, 0, Locality::kOffRack);
  jobs_.launch_map(1, 0, Locality::kOffRack);
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 2);
}

TEST_F(FairTest, ArrivalOrderBreaksFairnessTies) {
  FairScheduler sched(0);
  jobs_.add_job(make_job(1, 1, 100));
  jobs_.add_job(make_job(2, 1, 200));
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 1);
}

TEST_F(FairTest, LocalLaunchResetsDelayClock) {
  FairScheduler sched(from_seconds(10.0));
  jobs_.add_job(make_job(1, 2, 100));
  EXPECT_FALSE(sched.select_map(0, from_seconds(1.0), jobs_));
  EXPECT_NE(jobs_.job(1).waiting_since, kTimeNever);
  add_replica(0, 100);
  const auto sel = sched.select_map(0, from_seconds(2.0), jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_TRUE(sel->node_local());
  EXPECT_EQ(jobs_.job(1).waiting_since, kTimeNever);
}

TEST_F(FairTest, WaitingJobDoesNotBlockOthers) {
  FairScheduler sched(from_seconds(5.0));
  jobs_.add_job(make_job(1, 1, 100));  // fewest running, but never local
  jobs_.add_job(make_job(2, 1, 200));
  add_replica(3, 200);
  const auto sel = sched.select_map(3, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 2);  // job 1 skipped, job 2 local
}

TEST_F(FairTest, ReducePrefersJobWithFewerRunningReduces) {
  FairScheduler sched(from_seconds(5.0));
  jobs_.add_job(make_job(1, 1, 100, 3));
  jobs_.add_job(make_job(2, 1, 200, 3));
  for (JobId j : {JobId{1}, JobId{2}}) {
    jobs_.launch_map(j, 0, Locality::kNodeLocal);
    jobs_.complete_map(j, 1);
  }
  jobs_.launch_reduce(1);
  const auto r = sched.select_reduce(jobs_);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 2);
}

TEST_F(FairTest, NoReduceBeforeMapsDone) {
  FairScheduler sched(from_seconds(5.0));
  jobs_.add_job(make_job(1, 2, 100, 1));
  jobs_.launch_map(1, 0, Locality::kNodeLocal);
  jobs_.complete_map(1, 1);
  EXPECT_FALSE(sched.select_reduce(jobs_).has_value());
}

TEST_F(FairTest, WeightedShareFavorsHeavyJob) {
  FairScheduler sched(0);
  auto heavy = make_job(1, 8, 100);
  heavy.weight = 4.0;
  auto light = make_job(2, 8, 200);
  light.weight = 1.0;
  jobs_.add_job(heavy);
  jobs_.add_job(light);
  // Give each one running map: shares are 1/4 vs 1/1 — the heavy job is
  // furthest below its entitlement and gets the next slot.
  jobs_.launch_map(1, 0, Locality::kOffRack);
  jobs_.launch_map(2, 0, Locality::kOffRack);
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 1);
}

TEST_F(FairTest, EqualWeightsReduceToPlainFairness) {
  FairScheduler sched(0);
  jobs_.add_job(make_job(1, 4, 100));
  jobs_.add_job(make_job(2, 4, 200));
  jobs_.launch_map(1, 0, Locality::kOffRack);
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 2);
}

TEST_F(FairTest, NonPositiveWeightTreatedAsOne) {
  FairScheduler sched(0);
  auto broken = make_job(1, 4, 100);
  broken.weight = 0.0;  // defensive: config mistakes must not divide by 0
  jobs_.add_job(broken);
  jobs_.add_job(make_job(2, 4, 200));
  jobs_.launch_map(2, 0, Locality::kOffRack);
  const auto sel = sched.select_map(0, 0, jobs_);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->job, 1);
}

TEST_F(FairTest, HighDelayWithDistributedLocalityGivesAllLocal) {
  // Delay scheduling's core promise: with enough patience, every launch is
  // local when replicas are spread across nodes.
  FairScheduler sched(from_seconds(100.0));
  jobs_.add_job(make_job(1, 4, 100));
  add_replica(0, 100);
  add_replica(1, 101);
  add_replica(2, 102);
  add_replica(3, 103);
  int local_launches = 0;
  for (NodeId node = 0; node < 4; ++node) {
    const auto sel = sched.select_map(node, from_seconds(1.0), jobs_);
    if (sel) {
      EXPECT_TRUE(sel->node_local());
      jobs_.launch_map(sel->job, sel->pending_index, sel->locality);
      ++local_launches;
    }
  }
  EXPECT_EQ(local_launches, 4);
}

/// Randomized oracle for the incremental share order: drive an indexed
/// table through random add / launch / complete / requeue / clone / fail
/// steps and, after every step, compare FairScheduler's full offer order
/// with a test-local stable_sort, by fair_share(), of the active jobs that
/// have pending maps (the per-opportunity sort the share set replaced).
/// The offer order is read from the kDelayWait events of one opportunity
/// that every job declines: the probed node holds no replica, and every
/// delay clock is reset first so each decline records exactly one event.
TEST(FairOrderOracleTest, OfferOrderMatchesStableSortByFairShare) {
  constexpr int kSteps = 3000;
  constexpr NodeId kProbe = 0;
  constexpr std::size_t kBlocks = 24;
  LocalityIndex index(4, {0, 1, 2, 3}, 4);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    index.replica_added(static_cast<BlockId>(b),
                        static_cast<NodeId>(1 + b % 3));  // never kProbe
  }
  JobTable jobs;
  jobs.attach_locality_index(&index);
  // Release on retire, as the cluster runs it.
  jobs.set_retire_observer([](const JobRuntime&) {});
  obs::TraceCollector tracer;
  FairScheduler sched(from_seconds(1e6));
  sched.set_tracer(&tracer);

  Rng rng(2024);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  const double weights[] = {1.0, 2.0, 0.5};
  JobId next_job = 0;
  std::vector<JobId> live;                             // active jobs
  std::vector<std::pair<JobId, std::size_t>> running;  // running maps
  std::vector<JobId> clones;                           // one per clone
  const auto retire = [&](JobId job) {
    live.erase(std::find(live.begin(), live.end(), job));
  };

  for (int step = 0; step < kSteps; ++step) {
    const auto action = rng.uniform_int(0, 9);
    if (action <= 1 && live.size() < 16) {
      JobSpec spec;
      spec.id = next_job++;
      spec.reduces = 0;
      spec.weight = weights[pick(3)];
      const auto maps = rng.uniform_int(1, 5);
      for (std::int64_t m = 0; m < maps; ++m) {
        spec.maps.push_back(MapTaskSpec{static_cast<BlockId>(pick(kBlocks)),
                                        1, 1});
      }
      jobs.add_job(spec);
      live.push_back(spec.id);
    } else if (action <= 3 && !live.empty()) {
      const JobId job = live[pick(live.size())];
      const std::size_t pending = jobs.job(job).pending_maps.size();
      if (pending > 0) {
        running.emplace_back(
            job, jobs.launch_map(job, pick(pending), Locality::kOffRack));
      }
    } else if (action == 4 && !running.empty()) {
      const std::size_t i = pick(running.size());
      const JobId job = running[i].first;
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      if (jobs.complete_map(job, step).job_done) retire(job);
    } else if (action == 5 && !running.empty()) {
      const std::size_t i = pick(running.size());
      const auto [job, map_index] = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      jobs.requeue_running_map(job, map_index, Locality::kOffRack);
    } else if (action == 6 && !live.empty()) {
      const JobId job = live[pick(live.size())];
      jobs.launch_clone(job);
      clones.push_back(job);
    } else if (action == 7 && !clones.empty()) {
      const std::size_t i = pick(clones.size());
      jobs.finish_clone(clones[i]);
      clones.erase(clones.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (action == 8 && !live.empty() && pick(8) == 0) {
      const JobId job = live[pick(live.size())];
      jobs.fail_job(job, step);
      retire(job);
      running.erase(std::remove_if(running.begin(), running.end(),
                                   [&](const auto& r) {
                                     return r.first == job;
                                   }),
                    running.end());
    }

    std::vector<const JobRuntime*> sorted;
    for (const JobRuntime& rt : jobs.active_jobs()) {
      if (!rt.pending_maps.empty()) sorted.push_back(&rt);
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const JobRuntime* a, const JobRuntime* b) {
                       return a->fair_share() < b->fair_share();
                     });
    std::vector<JobId> expected;
    for (const JobRuntime* rt : sorted) expected.push_back(rt->spec.id);

    for (JobRuntime& rt : jobs.active_jobs()) rt.waiting_since = kTimeNever;
    tracer.clear();
    ASSERT_FALSE(sched.select_map(kProbe, from_seconds(step), jobs));
    std::vector<JobId> offered;
    for (const obs::TraceEvent& ev : tracer.events()) {
      if (ev.kind == obs::EventKind::kDelayWait) offered.push_back(ev.job);
    }
    ASSERT_EQ(offered, expected) << "offer order diverges at step " << step;
  }
  EXPECT_GT(next_job, 50);  // the schedule exercised a real job stream
}

}  // namespace
}  // namespace dare::sched
