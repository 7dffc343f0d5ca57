// Network-fault subsystem tests: the RepairScheduler data structure (two
// classes, dedup, deterministic ordering, retry reinsertion, and the
// tick's in-place pass against the popping loop it replaced), scripted rack
// partitions end to end (lost heartbeats -> declaration -> heal ->
// re-registration), and the partition-heal vs. repair race (surplus copies
// pruned exactly once, repair ledger balanced).
//
// Scripted partitions make these tests deterministic: the stochastic
// NetworkFaultProcess is exercised by Determinism.NetworkFaultsEnabled and
// the NetFaultSoak suite in test_chaos_soak.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "cluster/repair_scheduler.h"
#include "common/invariant.h"
#include "common/rng.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"

namespace dare::cluster {
namespace {

// --- RepairScheduler unit tests --------------------------------------------

using Entry = RepairScheduler::Entry;

/// The blocks one pass visits, in order, taking none.
std::vector<BlockId> pass_order(RepairScheduler& q) {
  std::vector<BlockId> order;
  q.begin_pass();
  while (const Entry* e = q.next_in_pass()) order.push_back(e->block);
  q.end_pass();
  return order;
}

/// Take the first entry of a fresh pass (the queue's front).
Entry take_front(RepairScheduler& q) {
  q.begin_pass();
  if (q.next_in_pass() == nullptr) {
    throw std::logic_error("take_front on an empty queue");
  }
  const Entry taken = q.take();
  q.end_pass();
  return taken;
}

TEST(RepairScheduler, PrioritizedCriticalDrainsBeforeBulk) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(10, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(11, RepairClass::kCritical, 200));
  EXPECT_TRUE(q.enqueue(12, RepairClass::kBulk, 50));
  EXPECT_TRUE(q.enqueue(13, RepairClass::kCritical, 150));

  // Criticals first (by enqueue time), then bulk (by enqueue time) — not
  // arrival order. A pass that takes nothing leaves every entry queued.
  EXPECT_EQ(pass_order(q), (std::vector<BlockId>{13, 11, 12, 10}));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_TRUE(q.consistent());
}

TEST(RepairScheduler, FifoIgnoresClasses) {
  RepairScheduler q(RepairPolicy::kFifo);
  EXPECT_TRUE(q.enqueue(10, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(11, RepairClass::kCritical, 200));
  EXPECT_TRUE(q.enqueue(12, RepairClass::kBulk, 50));
  EXPECT_EQ(pass_order(q), (std::vector<BlockId>{10, 11, 12}));
}

TEST(RepairScheduler, TiedEnqueueTimesOrderByBlockId) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(42, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(7, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(19, RepairClass::kBulk, 100));
  EXPECT_EQ(pass_order(q), (std::vector<BlockId>{7, 19, 42}));
}

// The regression Cluster::queue_repair relies on: replicas of one block
// dying in quick succession (two declarations both queueing it) must not
// produce two queue entries burning two rereplication_batch slots.
TEST(RepairScheduler, DedupSecondEnqueueIsIgnored) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.contains(5));
  EXPECT_FALSE(q.enqueue(5, RepairClass::kBulk, 300));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.consistent());

  // Original enqueue time survives the duplicate (repair latency measures
  // from the *first* queueing).
  const Entry e = take_front(q);
  EXPECT_EQ(e.enqueued, 100);
  EXPECT_FALSE(q.contains(5));
}

TEST(RepairScheduler, DuplicateEnqueueUpgradesBulkToCritical) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(6, RepairClass::kCritical, 150));
  // Another replica of block 5 died: the queued entry is upgraded in place
  // (keeping its earlier enqueue time), not duplicated.
  EXPECT_FALSE(q.enqueue(5, RepairClass::kCritical, 200));
  EXPECT_EQ(q.size(), 2u);

  const Entry first = take_front(q);
  EXPECT_EQ(first.block, 5);
  EXPECT_EQ(first.cls, RepairClass::kCritical);
  EXPECT_EQ(first.enqueued, 100);
  // A critical entry never downgrades back to bulk.
  RepairScheduler q2(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q2.enqueue(9, RepairClass::kCritical, 100));
  EXPECT_FALSE(q2.enqueue(9, RepairClass::kBulk, 200));
  EXPECT_EQ(take_front(q2).cls, RepairClass::kCritical);
}

TEST(RepairScheduler, ReinsertRestoresTakenEntry) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  Entry e = take_front(q);
  EXPECT_TRUE(q.empty());

  e.retries = 1;
  e.ready = 500;
  q.reinsert(e);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.contains(5));
  const Entry back = take_front(q);
  EXPECT_EQ(back.retries, 1u);
  EXPECT_EQ(back.ready, 500);
  EXPECT_EQ(back.enqueued, 100);  // first-enqueue time preserved
}

TEST(RepairScheduler, ReinsertThrowsWhenBlockAlreadyQueued) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  const Entry e = take_front(q);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kCritical, 200));  // fresh entry
  EXPECT_THROW(q.reinsert(e), std::logic_error);
}

TEST(RepairScheduler, DrainReturnsPriorityOrderAndEmpties) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(10, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(11, RepairClass::kCritical, 200));
  EXPECT_TRUE(q.enqueue(12, RepairClass::kBulk, 50));
  const auto drained = q.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].block, 11);
  EXPECT_EQ(drained[1].block, 12);
  EXPECT_EQ(drained[2].block, 10);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.consistent());
}

// A taken block re-queued behind the cursor is the pass's next visit, and
// the entries the pass left behind stay queued in place.
TEST(RepairScheduler, RequeueBehindCursorIsNextVisit) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(1, RepairClass::kBulk, 10));
  EXPECT_TRUE(q.enqueue(2, RepairClass::kBulk, 20));
  EXPECT_TRUE(q.enqueue(3, RepairClass::kBulk, 30));
  q.begin_pass();
  EXPECT_EQ(q.next_in_pass()->block, 1);  // deferred
  EXPECT_EQ(q.next_in_pass()->block, 2);
  Entry retried = q.take();
  retried.cls = RepairClass::kCritical;  // sorts before entry 1 now
  q.reinsert(retried);
  EXPECT_EQ(q.next_in_pass()->block, 2);
  EXPECT_EQ(q.next_in_pass()->block, 3);
  EXPECT_EQ(q.next_in_pass(), nullptr);
  q.end_pass();
  EXPECT_EQ(pass_order(q), (std::vector<BlockId>{2, 1, 3}));
  EXPECT_TRUE(q.consistent());
}

// The trace records one repair_preempted per queued entry: the first
// preemption of an entry reports true, later passes false, and a retried
// or freshly enqueued block is a new entry.
TEST(RepairScheduler, MarkPreemptedIsFirstOncePerEntry) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(1, RepairClass::kBulk, 10));
  EXPECT_TRUE(q.enqueue(2, RepairClass::kBulk, 20));
  for (const bool first : {true, false}) {
    q.begin_pass();
    ASSERT_EQ(q.next_in_pass()->block, 1);
    EXPECT_EQ(q.mark_preempted(), first);
    q.end_pass();
  }
  q.begin_pass();
  ASSERT_EQ(q.next_in_pass()->block, 1);
  Entry retried = q.take();
  EXPECT_TRUE(retried.preempted);
  retried.preempted = false;  // what Cluster::retry_repair does
  q.reinsert(retried);
  ASSERT_EQ(q.next_in_pass()->block, 1);  // re-queued behind the cursor
  EXPECT_TRUE(q.mark_preempted());
  ASSERT_EQ(q.next_in_pass()->block, 2);
  EXPECT_TRUE(q.mark_preempted());
  q.take();
  EXPECT_TRUE(q.enqueue(2, RepairClass::kBulk, 30));  // a fresh entry
  ASSERT_EQ(q.next_in_pass()->block, 2);
  EXPECT_TRUE(q.mark_preempted());
  EXPECT_EQ(q.next_in_pass(), nullptr);
  q.end_pass();
}

/// The repair tick's loop as it ran on a popping queue: a plain vector of
/// entries with the scheduler's ordering rules restated, pop-the-front,
/// deferred entries held aside and reinserted when the tick ends.
class PoppingModel {
 public:
  explicit PoppingModel(RepairPolicy policy) : policy_(policy) {}

  void enqueue(BlockId block, RepairClass cls, SimTime now) {
    for (Entry& e : entries_) {
      if (e.block != block) continue;
      if (cls == RepairClass::kCritical) e.cls = cls;
      return;
    }
    Entry e;
    e.block = block;
    e.cls = cls;
    e.enqueued = now;
    e.seq = next_seq_++;
    e.ready = now;
    entries_.push_back(e);
  }
  std::optional<Entry> pop_front() {
    if (entries_.empty()) return std::nullopt;
    const auto it = std::min_element(
        entries_.begin(), entries_.end(),
        [this](const Entry& a, const Entry& b) { return before(a, b); });
    const Entry e = *it;
    entries_.erase(it);
    return e;
  }
  void reinsert(const Entry& e) { entries_.push_back(e); }
  std::size_t size() const { return entries_.size(); }
  /// Every entry in priority order.
  std::vector<Entry> sorted() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(),
              [this](const Entry& a, const Entry& b) { return before(a, b); });
    return out;
  }

 private:
  bool before(const Entry& a, const Entry& b) const {
    if (policy_ == RepairPolicy::kFifo) return a.seq < b.seq;
    if (a.cls != b.cls) return a.cls < b.cls;
    if (a.enqueued != b.enqueued) return a.enqueued < b.enqueued;
    return a.block < b.block;
  }

  RepairPolicy policy_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;
};

enum class Outcome { kDefer, kConsume, kRetry, kConsumeAndEnqueue };
struct Step {
  Outcome outcome;
  RepairClass cls;  ///< the retried entry's class, or the fresh entry's
};

/// One tick's outcome of one visit: what the tick did with the entry.
void apply(RepairScheduler& q, const Entry& visited, const Step& step,
           SimTime now, std::size_t& started) {
  switch (step.outcome) {
    case Outcome::kDefer:
      return;
    case Outcome::kConsume:
      q.take();
      ++started;
      return;
    case Outcome::kRetry: {
      Entry retried = q.take();
      ++retried.retries;
      retried.ready = now + 1 + static_cast<SimTime>(retried.retries);
      retried.cls = step.cls;
      q.reinsert(retried);
      return;
    }
    case Outcome::kConsumeAndEnqueue:
      q.take();
      q.enqueue(visited.block, step.cls, now);
      return;
  }
}

bool same_entry(const Entry& a, const Entry& b) {
  return a.block == b.block && a.cls == b.cls && a.enqueued == b.enqueued &&
         a.seq == b.seq && a.ready == b.ready && a.retries == b.retries;
}

// The pass against the popping loop it replaced, on seeded random scripts:
// random enqueues (with dedups and upgrades) between ticks, and one random
// outcome per visit, under both policies. Same visits, same stop (the pop
// budget or the batch), same queue after every tick.
TEST(RepairScheduler, PassVisitsInPopOrder) {
  Rng rng(2026);
  const auto pick = [&](std::uint64_t n) { return rng.uniform_int(n); };
  const auto random_class = [&] {
    return pick(3) == 0 ? RepairClass::kCritical : RepairClass::kBulk;
  };
  std::size_t requeued_next = 0;
  std::size_t budget_stops = 0;
  for (const RepairPolicy policy :
       {RepairPolicy::kPrioritized, RepairPolicy::kFifo}) {
    for (int script = 0; script < 1000; ++script) {
      SCOPED_TRACE(testing::Message()
                   << "policy " << static_cast<int>(policy) << ", script "
                   << script);
      RepairScheduler q(policy);
      PoppingModel model(policy);
      SimTime now = 0;
      for (int tick = 0; tick < 4; ++tick) {
        // Enqueues between ticks, a few at each of several times (ties).
        const std::uint64_t enqueues = pick(24);
        for (std::uint64_t k = 0; k < enqueues; ++k) {
          if (pick(4) == 0) ++now;
          const auto block = static_cast<BlockId>(pick(40));
          const RepairClass cls = random_class();
          q.enqueue(block, cls, now);
          model.enqueue(block, cls, now);
        }
        ++now;
        // One scripted outcome per visit, shared by both loops.
        std::vector<Step> steps(200);
        for (Step& step : steps) {
          step.outcome = static_cast<Outcome>(pick(4));
          step.cls = random_class();
        }
        const std::size_t batch = 1 + pick(8);

        std::vector<Entry> expected;
        std::size_t model_pops = 0;
        {
          std::vector<Entry> deferred;
          const std::size_t max_pops = model.size();
          std::size_t started = 0;
          while (model_pops < max_pops && started < batch) {
            ++model_pops;
            const auto popped = model.pop_front();
            if (!popped) break;
            const Entry e = *popped;
            if (!expected.empty() && expected.back().block == e.block) {
              ++requeued_next;
            }
            const Step& step = steps[expected.size()];
            expected.push_back(e);
            switch (step.outcome) {
              case Outcome::kDefer:
                deferred.push_back(e);
                break;
              case Outcome::kConsume:
                ++started;
                break;
              case Outcome::kRetry: {
                Entry retried = e;
                ++retried.retries;
                retried.ready = now + 1 + static_cast<SimTime>(retried.retries);
                retried.cls = step.cls;
                model.reinsert(retried);
                break;
              }
              case Outcome::kConsumeAndEnqueue:
                model.enqueue(e.block, step.cls, now);
                break;
            }
          }
          if (model_pops == max_pops) ++budget_stops;
          for (const Entry& e : deferred) model.reinsert(e);
        }

        std::vector<Entry> visited;
        std::size_t pops = 0;
        {
          const std::size_t max_pops = q.size();
          std::size_t started = 0;
          q.begin_pass();
          while (pops < max_pops && started < batch) {
            ++pops;
            const Entry* e = q.next_in_pass();
            if (e == nullptr) break;
            const Entry copy = *e;
            const Step& step = steps[visited.size()];
            visited.push_back(copy);
            apply(q, copy, step, now, started);
          }
          q.end_pass();
        }

        ASSERT_EQ(pops, model_pops) << "tick " << tick;
        ASSERT_EQ(visited.size(), expected.size()) << "tick " << tick;
        for (std::size_t i = 0; i < visited.size(); ++i) {
          ASSERT_TRUE(same_entry(visited[i], expected[i]))
              << "tick " << tick << ", visit " << i << ": block "
              << visited[i].block << " vs " << expected[i].block;
        }
        ASSERT_TRUE(q.consistent());
        ASSERT_EQ(q.size(), model.size());
        // The final queue, compared through a pass that takes nothing.
        const std::vector<Entry> want = model.sorted();
        q.begin_pass();
        for (const Entry& w : want) {
          const Entry* got = q.next_in_pass();
          ASSERT_NE(got, nullptr);
          ASSERT_TRUE(same_entry(*got, w)) << "tick " << tick;
        }
        ASSERT_EQ(q.next_in_pass(), nullptr);
        q.end_pass();
      }
    }
  }
  // The scripts reach both rare paths: a re-queued block visited next
  // (behind the cursor) and a pass cut off by its pop budget.
  EXPECT_GT(requeued_next, 500u);
  EXPECT_GT(budget_stops, 500u);
}

// --- scripted partitions, end to end ---------------------------------------

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

/// Long-tailed workload: arrivals spread far enough that the run is still
/// active when a scripted partition (t=10s..25s) heals.
workload::Workload partition_workload() {
  workload::WorkloadOptions opts;
  opts.num_jobs = 30;
  opts.seed = 7;
  opts.catalog.small_files = 16;
  opts.catalog.large_files = 2;
  opts.catalog.large_min_blocks = 4;
  opts.catalog.large_max_blocks = 6;
  auto wl = workload::make_wl1(opts);
  for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
    wl.jobs[i].arrival = from_seconds(1.0 + 1.5 * static_cast<double>(i));
  }
  return wl;
}

/// The topology is deterministic per (profile, seed): a probe instance
/// reveals which rack worker 0 landed in, so the scripted partition always
/// hits a populated rack.
RackId rack_of_worker0(const ClusterOptions& opts) {
  Cluster probe(opts);
  return probe.topology().rack_of(0);
}

ClusterOptions partition_options() {
  // ec2 profile: multi-rack, so a rack partition actually cuts something.
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFair,
                             PolicyKind::kElephantTrap, /*seed=*/12);
  // 3 s heartbeats x 3 missed => declaration ~9..12 s into the partition;
  // a 15 s episode is comfortably detected, leaving ~3 s of declared time.
  opts.partition_events.push_back(
      {from_seconds(10.0), rack_of_worker0(opts), from_seconds(15.0)});
  opts.rereplication_interval = from_seconds(0.5);
  opts.rereplication_batch = 32;
  return opts;
}

TEST(NetFault, ScriptedPartitionIsDetectedAndHeals) {
  ThrowOnInvariant guard;
  const auto opts = partition_options();
  const auto wl = partition_workload();

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl));

  EXPECT_EQ(result.partition_episodes, 1u);
  EXPECT_EQ(result.partitions_healed, 1u);

  // The detector declared at least the partitioned worker dead — without a
  // single physical node failure. Heal re-registered it.
  EXPECT_EQ(result.node_failures, 0u);
  EXPECT_EQ(result.transient_failures, 0u);
  EXPECT_EQ(result.permanent_failures, 0u);
  EXPECT_GE(result.failures_detected, 1u);
  EXPECT_GE(result.node_rejoins, 1u);

  // Every job is terminally accounted and the cluster is consistent.
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_GE(jm.completion, jm.arrival);
  EXPECT_NO_THROW(cluster.validate());

  // The repair ledger closed out: every first-time enqueue terminally
  // landed or was abandoned.
  EXPECT_EQ(result.repairs_enqueued,
            result.repairs_landed + result.repairs_abandoned);
}

TEST(NetFault, HealRepairRacePrunesSurplusExactlyOnce) {
  ThrowOnInvariant guard;
  const auto opts = partition_options();
  const auto wl = partition_workload();

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl));

  // The race under test: declaration queued repairs for the partitioned
  // rack's blocks, the aggressive tick landed copies during the episode,
  // and heal-time re-registration found the "lost" replicas alive again.
  EXPECT_GE(result.repairs_landed, 1u);
  EXPECT_GE(result.overreplication_prunes, 1u);

  // Exactly-once pruning shows up as global consistency: validate() fails
  // if a replica was pruned twice (location without a physical copy) or
  // zero times where it mattered (it also checks the repair ledger
  // equation).
  EXPECT_NO_THROW(cluster.validate());
  EXPECT_EQ(result.repairs_enqueued,
            result.repairs_landed + result.repairs_abandoned);

  // The name node never kept a surplus static replica: a missed prune at
  // re-registration would leave a block above its replication target.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    const auto& info = nn.file(fid);
    for (BlockId bid : info.blocks) {
      EXPECT_LE(nn.static_locations(bid).size(),
                static_cast<std::size_t>(info.replication))
          << "block " << bid << " kept surplus replicas after the heal";
    }
  }
}

TEST(NetFault, PartitionEventValidation) {
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, /*seed=*/3);
  opts.partition_events.push_back({from_seconds(1.0), RackId{9999},
                                   from_seconds(5.0)});
  EXPECT_THROW(Cluster{opts}, std::invalid_argument);

  auto zero = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, /*seed=*/3);
  zero.partition_events.push_back({from_seconds(1.0), RackId{0}, 0});
  EXPECT_THROW(Cluster{zero}, std::invalid_argument);
}

TEST(NetFault, BadParamsThrowNamingField) {
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, /*seed=*/3);
  opts.netfault.enabled = true;
  opts.netfault.bandwidth_cut = 0.0;
  try {
    Cluster cluster(opts);
    FAIL() << "bandwidth_cut = 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bandwidth_cut"), std::string::npos)
        << e.what();
  }

  auto backoff = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                                PolicyKind::kVanilla, /*seed=*/3);
  backoff.repair_retry_backoff = 0;
  try {
    Cluster cluster(backoff);
    FAIL() << "repair_retry_backoff = 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("repair_retry_backoff"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dare::cluster
