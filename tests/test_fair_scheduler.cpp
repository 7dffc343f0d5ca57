#include "sched/fair_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/trace_collector.h"
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
class FairTest : public ::testing::Test {
 protected:
  FairTest() { jobs_.attach_locality_index(&index_); }
  void add_replica(NodeId node, BlockId block) {
    blocks_.add(index_, block, node);
  }

  FakeBlockMap blocks_;
  LocalityIndex index_{4, {0, 1, 2, 3}, 4, blocks_.source()};
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
  FakeBlockMap blocks;
  LocalityIndex index(2, {0, 0}, 1, blocks.source());
  JobTable jobs;
  jobs.attach_locality_index(&index);
  blocks.add(index, 100, 1);
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
/// The order is read with offer_order(); one offer that every job declines
/// (the probed node holds no replica) then checks that the walk probes in
/// that order: each job whose delay clock has not started records one
/// kDelayWait event, in offer order. (The clocks belong to the scheduler,
/// which mirrors them in its decline memo, so the test never resets them.)
TEST(FairOrderOracleTest, OfferOrderMatchesStableSortByFairShare) {
  constexpr int kSteps = 3000;
  constexpr NodeId kProbe = 0;
  constexpr std::size_t kBlocks = 24;
  FakeBlockMap blocks;
  LocalityIndex index(4, {0, 1, 2, 3}, 4, blocks.source());
  for (std::size_t b = 0; b < kBlocks; ++b) {
    blocks.add(index, static_cast<BlockId>(b),
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
    std::vector<JobId> expected_fresh;
    for (const JobRuntime* rt : sorted) {
      expected.push_back(rt->spec.id);
      if (rt->waiting_since == kTimeNever) expected_fresh.push_back(rt->spec.id);
    }
    ASSERT_EQ(sched.offer_order(jobs), expected)
        << "offer order diverges at step " << step;

    tracer.clear();
    ASSERT_FALSE(sched.select_map(kProbe, from_seconds(step), jobs));
    std::vector<JobId> offered;
    for (const obs::TraceEvent& ev : tracer.events()) {
      if (ev.kind == obs::EventKind::kDelayWait) offered.push_back(ev.job);
    }
    ASSERT_EQ(offered, expected_fresh)
        << "probe order diverges at step " << step;
  }
  EXPECT_GT(next_job, 50);  // the schedule exercised a real job stream
}

/// The delay-scheduling walk as it was before the decline memo, kept as
/// the memo's oracle: every offer probes every job with pending maps, in
/// fair order (a stable_sort by fair_share(), the order the share set
/// reproduces; see OfferOrderMatchesStableSortByFairShare).
class FullWalkFair {
 public:
  FullWalkFair(SimDuration node_delay, SimDuration rack_delay,
               obs::TraceCollector* tracer)
      : node_delay_(node_delay), rack_delay_(rack_delay), tracer_(tracer) {}

  std::optional<MapSelection> select_map(NodeId node, SimTime now,
                                         JobTable& jobs) {
    std::vector<JobRuntime*> order;
    for (JobRuntime& rt : jobs.active_jobs()) {
      if (!rt.pending_maps.empty()) order.push_back(&rt);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const JobRuntime* a, const JobRuntime* b) {
                       return a->fair_share() < b->fair_share();
                     });
    for (JobRuntime* rt : order) {
      if (auto picked = try_job(*rt, node, now, jobs)) return picked;
    }
    return std::nullopt;
  }

 private:
  std::optional<MapSelection> try_job(JobRuntime& rt, NodeId node,
                                      SimTime now, JobTable& jobs) {
    const JobId id = rt.spec.id;
    if (const auto local = jobs.find_local_map(rt, node)) {
      const double waited_s = rt.waiting_since == kTimeNever
                                  ? 0.0
                                  : to_seconds(now - rt.waiting_since);
      tracer_->scheduler_decision(
          node, id, static_cast<int>(Locality::kNodeLocal), waited_s);
      rt.waiting_since = kTimeNever;
      return MapSelection{id, *local, Locality::kNodeLocal};
    }
    if (rt.waiting_since == kTimeNever) {
      rt.waiting_since = now;
      if (node_delay_ > 0) {
        tracer_->delay_wait(node, id);
        return std::nullopt;
      }
    }
    const SimDuration waited = now - rt.waiting_since;
    if (waited >= node_delay_) {
      if (const auto rack = jobs.find_rack_local_map(rt, node)) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kRackLocal),
                                    to_seconds(waited));
        rt.waiting_since = kTimeNever;
        return MapSelection{id, *rack, Locality::kRackLocal};
      }
      if (waited >= node_delay_ + rack_delay_) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kOffRack),
                                    to_seconds(waited));
        rt.waiting_since = kTimeNever;
        return MapSelection{id, 0, Locality::kOffRack};
      }
    }
    return std::nullopt;
  }

  SimDuration node_delay_;
  SimDuration rack_delay_;
  obs::TraceCollector* tracer_;
};

/// One job table with its index and tracer; the memo oracle drives two.
struct Twin {
  Twin(const std::vector<RackId>& racks, std::size_t num_racks)
      : index(racks.size(), racks, num_racks, blocks.source()) {
    jobs.attach_locality_index(&index);
    jobs.set_retire_observer([](const JobRuntime&) {});
  }
  FakeBlockMap blocks;
  LocalityIndex index;
  JobTable jobs;
  obs::TraceCollector tracer;
};

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.t == b.t && a.kind == b.kind && a.node == b.node &&
         a.job == b.job && a.task == b.task && a.detail == b.detail &&
         a.value == b.value;
}

struct MemoCase {
  double node_delay_s;
  double rack_delay_s;
  bool one_rack;  ///< else two nodes per rack
};

void PrintTo(const MemoCase& c, std::ostream* os) {
  *os << (c.one_rack ? "one rack" : "two nodes per rack") << ", delays "
      << c.node_delay_s << " s / " << c.rack_delay_s << " s";
}

/// Drives a FairScheduler twin and a FullWalkFair twin through one random
/// schedule (arrivals, offers and the launches they select, completions,
/// requeues, job kills, clones, direct launches, replica adds and removes,
/// time steps across both delay thresholds) and fails on the first offer
/// whose selection, delay clocks or trace events differ. Returns the
/// offers the memo answered.
std::uint64_t run_memo_oracle(const MemoCase& c, std::uint64_t seed) {
  constexpr std::size_t kNodes = 6;
  constexpr std::size_t kBlocks = 14;
  constexpr int kSteps = 40000;
  std::vector<RackId> racks(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    racks[n] = c.one_rack ? 0 : static_cast<RackId>(n / 2);
  }
  const std::size_t num_racks = c.one_rack ? 1 : kNodes / 2;
  Twin memo(racks, num_racks);
  Twin full(racks, num_racks);
  SimTime now = 0;
  memo.tracer.set_clock([&] { return now; });
  full.tracer.set_clock([&] { return now; });
  FairScheduler sched(from_seconds(c.node_delay_s),
                      from_seconds(c.rack_delay_s));
  sched.set_tracer(&memo.tracer);
  FullWalkFair oracle(from_seconds(c.node_delay_s),
                      from_seconds(c.rack_delay_s), &full.tracer);

  Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  std::vector<std::vector<bool>> holds(kBlocks, std::vector<bool>(kNodes));
  const auto add_replica = [&](BlockId b, NodeId n) {
    holds[static_cast<std::size_t>(b)][static_cast<std::size_t>(n)] = true;
    memo.blocks.add(memo.index, b, n);
    full.blocks.add(full.index, b, n);
  };
  for (std::size_t b = 0; b < kBlocks; ++b) {
    add_replica(static_cast<BlockId>(b), static_cast<NodeId>(pick(kNodes)));
  }

  const double weights[] = {1.0, 2.0, 0.5};
  const double steps_ms[] = {0.0, 20.0, 50.0, 100.0, 250.0, 499.0, 500.0, 501.0};
  JobId next_job = 0;
  std::vector<JobId> live;
  struct Running {
    JobId job;
    std::size_t map_index;
    Locality locality;
  };
  std::vector<Running> running;
  std::vector<JobId> clones;
  std::size_t checked_events = 0;
  const auto drop_job = [&](JobId job) {
    live.erase(std::find(live.begin(), live.end(), job));
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [&](const Running& r) {
                                   return r.job == job;
                                 }),
                  running.end());
  };
  const auto launch = [&](JobId job, std::size_t pending_index,
                          Locality locality) {
    const std::size_t mi = memo.jobs.launch_map(job, pending_index, locality);
    EXPECT_EQ(full.jobs.launch_map(job, pending_index, locality), mi);
    running.push_back({job, mi, locality});
  };

  for (int step = 0; step < kSteps; ++step) {
    const auto action = rng.uniform_int(0, 19);
    if (action == 0 && live.size() < 10) {
      JobSpec spec;
      spec.id = next_job++;
      spec.reduces = 0;
      spec.weight = weights[pick(3)];
      const auto maps = rng.uniform_int(1, 5);
      for (std::int64_t m = 0; m < maps; ++m) {
        spec.maps.push_back(
            MapTaskSpec{static_cast<BlockId>(pick(kBlocks)), 1, 1});
      }
      memo.jobs.add_job(spec);
      full.jobs.add_job(spec);
      live.push_back(spec.id);
    } else if (action == 1 && !running.empty()) {
      const std::size_t i = pick(running.size());
      const JobId job = running[i].job;
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      const bool done = memo.jobs.complete_map(job, now).job_done;
      EXPECT_EQ(full.jobs.complete_map(job, now).job_done, done);
      if (done) drop_job(job);
    } else if (action == 2 && !running.empty()) {
      const std::size_t i = pick(running.size());
      const Running r = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      memo.jobs.requeue_running_map(r.job, r.map_index, r.locality);
      full.jobs.requeue_running_map(r.job, r.map_index, r.locality);
    } else if (action == 3 && !live.empty() && pick(6) == 0) {
      const JobId job = live[pick(live.size())];
      memo.jobs.fail_job(job, now);
      full.jobs.fail_job(job, now);
      drop_job(job);
    } else if (action == 4 && !live.empty()) {
      if (!clones.empty() && pick(2) == 0) {
        const std::size_t i = pick(clones.size());
        memo.jobs.finish_clone(clones[i]);
        full.jobs.finish_clone(clones[i]);
        clones.erase(clones.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const JobId job = live[pick(live.size())];
        memo.jobs.launch_clone(job);
        full.jobs.launch_clone(job);
        clones.push_back(job);
      }
    } else if (action == 5) {
      const auto b = static_cast<BlockId>(pick(kBlocks));
      const auto n = static_cast<NodeId>(pick(kNodes));
      if (!holds[static_cast<std::size_t>(b)][static_cast<std::size_t>(n)]) {
        add_replica(b, n);
      }
    } else if (action == 6) {
      const auto b = static_cast<BlockId>(pick(kBlocks));
      const auto n = static_cast<NodeId>(pick(kNodes));
      if (holds[static_cast<std::size_t>(b)][static_cast<std::size_t>(n)]) {
        holds[static_cast<std::size_t>(b)][static_cast<std::size_t>(n)] =
            false;
        memo.blocks.remove(memo.index, b, n);
        full.blocks.remove(full.index, b, n);
      }
    } else if (action == 7 && !live.empty() && pick(4) == 0) {
      // A launch no selection made: the job keeps its delay clock.
      const JobId job = live[pick(live.size())];
      const std::size_t pending = memo.jobs.job(job).pending_maps.size();
      if (pending > 0) launch(job, pick(pending), Locality::kOffRack);
    } else if (action <= 9) {
      now += from_millis(steps_ms[pick(std::size(steps_ms))]);
    } else {
      const auto node = static_cast<NodeId>(pick(kNodes));
      const auto got = sched.select_map(node, now, memo.jobs);
      const auto want = oracle.select_map(node, now, full.jobs);
      EXPECT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got && want) {
        EXPECT_EQ(got->job, want->job) << "step " << step;
        EXPECT_EQ(got->pending_index, want->pending_index) << "step " << step;
        EXPECT_EQ(got->locality, want->locality) << "step " << step;
        launch(got->job, got->pending_index, got->locality);
      }
    }

    // Every delay clock and every trace event matches after every step.
    auto a = memo.jobs.active_jobs().begin();
    auto b = full.jobs.active_jobs().begin();
    for (; a != memo.jobs.active_jobs().end(); ++a, ++b) {
      EXPECT_EQ(a->spec.id, b->spec.id);
      EXPECT_EQ(a->waiting_since, b->waiting_since)
          << "job " << a->spec.id << " at step " << step;
    }
    EXPECT_EQ(memo.tracer.events().size(), full.tracer.events().size())
        << "step " << step;
    for (; checked_events < std::min(memo.tracer.events().size(),
                                     full.tracer.events().size());
         ++checked_events) {
      EXPECT_TRUE(same_event(memo.tracer.events()[checked_events],
                             full.tracer.events()[checked_events]))
          << "trace event " << checked_events << " at step " << step;
    }
    if (::testing::Test::HasFailure()) break;
  }
  return sched.work().memo_answers;
}

class FairDeclineMemo : public ::testing::TestWithParam<MemoCase> {};

TEST_P(FairDeclineMemo, MatchesFullWalkOnRandomSchedules) {
  const MemoCase& c = GetParam();
  const std::uint64_t answered = run_memo_oracle(c, 77);
  if (c.node_delay_s + c.rack_delay_s > 0) {
    // The memo answered real offers, so the comparison covered it.
    EXPECT_GT(answered, 100u);
  } else {
    // Zero delays are greedy: every walk with a job selects, so no node is
    // ever memoized.
    EXPECT_EQ(answered, 0u);
  }
}

std::string memo_case_name(const ::testing::TestParamInfo<MemoCase>& info) {
  const MemoCase& c = info.param;
  return std::string(c.one_rack ? "OneRack" : "TwoPerRack") + "_Node" +
         std::to_string(static_cast<int>(c.node_delay_s * 1000)) + "ms_Rack" +
         std::to_string(static_cast<int>(c.rack_delay_s * 1000)) + "ms";
}

INSTANTIATE_TEST_SUITE_P(
    DelaysAndTopologies, FairDeclineMemo,
    ::testing::Values(MemoCase{0.0, 0.0, true}, MemoCase{0.0, 0.5, true},
                      MemoCase{0.5, 0.0, true}, MemoCase{0.5, 0.5, true},
                      MemoCase{0.0, 0.0, false}, MemoCase{0.0, 0.5, false},
                      MemoCase{0.5, 0.0, false}, MemoCase{0.5, 0.5, false}),
    memo_case_name);

}  // namespace
}  // namespace dare::sched
