// Model-based randomized tests ("fuzz") for the replication policies and
// the event queue: drive thousands of random operations and check every
// externally observable invariant after each step, plus cross-check the
// greedy-LRU policy against an executable reference model.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "core/lfu.h"
#include "net/profile.h"
#include "sim/event_queue.h"

namespace dare {
namespace {

storage::BlockMeta blk(BlockId id, FileId file, Bytes size) {
  return storage::BlockMeta{id, file, size};
}

/// Executable reference model of Algorithm 1 (greedy LRU with same-file
/// protection), tracking only block ids.
class LruModel {
 public:
  explicit LruModel(Bytes budget) : budget_(budget) {}

  /// Mirrors GreedyLruPolicy::on_map_task; returns replicated?
  bool access(BlockId id, FileId file, Bytes size, bool local) {
    if (local || contains(id)) {
      touch(id);
      return false;
    }
    if (size > budget_) return false;
    // Evict LRU victims, skipping same-file blocks (rotate to MRU).
    std::size_t examined = 0;
    const std::size_t limit = order_.size();
    while (used_ + size > budget_ && examined < limit) {
      ++examined;
      const auto victim = order_.front();
      order_.pop_front();
      if (victim.file == file) {
        order_.push_back(victim);
        continue;
      }
      used_ -= victim.size;
      ids_.erase(victim.id);
    }
    if (used_ + size > budget_) return false;
    order_.push_back(Entry{id, file, size});
    ids_.insert(id);
    used_ += size;
    return true;
  }

  bool contains(BlockId id) const { return ids_.count(id) != 0; }
  Bytes used() const { return used_; }
  std::size_t size() const { return ids_.size(); }

 private:
  struct Entry {
    BlockId id;
    FileId file;
    Bytes size;
  };
  void touch(BlockId id) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->id == id) {
        order_.splice(order_.end(), order_, it);
        return;
      }
    }
  }
  Bytes budget_;
  Bytes used_ = 0;
  std::list<Entry> order_;
  std::set<BlockId> ids_;
};

TEST(FuzzGreedyLru, MatchesReferenceModel) {
  Rng rng(101);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  const Bytes budget = 1000;
  core::GreedyLruPolicy policy(node, budget);
  LruModel model(budget);

  Rng ops(202);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{40}));
    const FileId file = id / 3;  // a few blocks per file
    const Bytes size = 100 + 50 * (id % 3);
    // "local" mirrors reality: the node already has the block.
    const bool local = node.has_visible_block(id);
    ASSERT_EQ(local, model.contains(id)) << "step " << step;
    const bool replicated = policy.on_map_task(blk(id, file, size), local);
    const bool model_replicated = model.access(id, file, size, local);
    ASSERT_EQ(replicated, model_replicated) << "step " << step;
    ASSERT_EQ(node.dynamic_bytes(), model.used()) << "step " << step;
    ASSERT_LE(node.dynamic_bytes(), budget);
    node.reclaim_marked();
  }
  EXPECT_EQ(node.dynamic_blocks().size(), model.size());
}

TEST(FuzzElephantTrap, InvariantsUnderRandomOps) {
  Rng rng(303);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  const Bytes budget = 1200;
  core::ElephantTrapParams params;
  params.p = 0.6;
  params.threshold = 2;
  core::ElephantTrapPolicy policy(node, budget, params, rng);

  Rng ops(404);
  std::uint64_t created_before = 0;
  for (int step = 0; step < 30000; ++step) {
    const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{60}));
    const FileId file = id / 4;
    const Bytes size = 100 + 25 * (id % 5);
    const bool local = node.has_visible_block(id);
    const bool replicated = policy.on_map_task(blk(id, file, size), local);

    // Invariants after every step:
    ASSERT_LE(node.dynamic_bytes(), budget) << "step " << step;
    ASSERT_EQ(policy.tracked_blocks(), node.dynamic_blocks().size())
        << "step " << step;
    if (replicated) {
      ASSERT_FALSE(local);
      ASSERT_TRUE(node.has_dynamic_block(id));
      ASSERT_EQ(policy.replicas_created(), created_before + 1);
    }
    created_before = policy.replicas_created();
    // A local access can never create a replica.
    if (local) { ASSERT_FALSE(replicated); }
    if (step % 7 == 0) node.reclaim_marked();
  }
  // The policy never lies about its contents.
  for (BlockId id : node.dynamic_blocks()) {
    EXPECT_GE(policy.access_count(id), 0u);
  }
}

TEST(FuzzLfu, InvariantsUnderRandomOps) {
  Rng rng(505);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  const Bytes budget = 800;
  core::GreedyLfuPolicy policy(node, budget);

  Rng ops(606);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{30}));
    const FileId file = id / 2;
    const bool local = node.has_visible_block(id);
    policy.on_map_task(blk(id, file, 100), local);
    ASSERT_LE(node.dynamic_bytes(), budget);
    ASSERT_EQ(policy.tracked_blocks(), node.dynamic_blocks().size());
    node.reclaim_marked();
  }
}

TEST(FuzzEventQueue, MatchesExactPendingSetModel) {
  // Reference model: the set of pending (when, tag) pairs, ordered by
  // (when, tag) — tags are assigned in scheduling order, so this is exactly
  // the queue's documented (time, insertion) order. Each pop must return
  // the model's minimum; cancels remove arbitrary pending entries. The
  // record carries its (when, tag) so a pop can be checked against both.
  Rng ops(707);
  sim::EventQueue queue;
  std::map<std::pair<SimTime, int>, sim::EventHandle> pending;
  std::vector<std::pair<SimTime, int>> fired;
  const auto pop = [&] {
    const sim::Event event = queue.pop();
    fired.emplace_back(static_cast<SimTime>(event.id), event.node);
  };
  int next_tag = 0;

  for (int step = 0; step < 8000; ++step) {
    const double dice = ops.uniform();
    if (dice < 0.55) {
      const auto when =
          static_cast<SimTime>(ops.uniform_int(std::uint64_t{1000}));
      const int tag = next_tag++;
      auto handle = queue.schedule(
          when, sim::Event{0, tag, static_cast<std::uint64_t>(when)});
      pending.emplace(std::make_pair(when, tag), std::move(handle));
    } else if (dice < 0.7 && !pending.empty()) {
      // Cancel a pseudo-random pending entry.
      auto it = pending.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           ops.uniform_int(pending.size())));
      ASSERT_TRUE(it->second.cancel());
      pending.erase(it);
    } else if (!queue.empty()) {
      const auto expected = pending.begin()->first;
      const std::size_t fired_before = fired.size();
      pop();
      ASSERT_EQ(fired.size(), fired_before + 1) << "step " << step;
      ASSERT_EQ(fired.back(), expected) << "step " << step;
      pending.erase(pending.begin());
    }
    ASSERT_EQ(queue.size(), pending.size()) << "step " << step;
    ASSERT_EQ(queue.empty(), pending.empty()) << "step " << step;
    if (!pending.empty()) {
      ASSERT_EQ(queue.next_time(), pending.begin()->first.first)
          << "step " << step;
    }
  }
  while (!queue.empty()) {
    const auto expected = pending.begin()->first;
    pop();
    ASSERT_EQ(fired.back(), expected);
    pending.erase(pending.begin());
  }
  EXPECT_TRUE(pending.empty());
}

TEST(FuzzEventQueue, ClassOrderedHeapMatchesOneOrderedModel) {
  // One (when, class, tag) model, the tag counting schedules: a share of
  // the schedules are late-class, and times cluster on a moving frontier,
  // so many entries of both classes share a time and only the class, then
  // the sequence number, can order them. Pops go through pop_due with a
  // random horizon; every pop, next_time() and size() must agree with the
  // model.
  struct Pending {
    sim::EventHandle handle;
  };
  using Key = std::tuple<SimTime, int, int>;  // when, class, tag
  Rng ops(709);
  sim::EventQueue queue;
  std::map<Key, Pending> pending;
  SimTime frontier = 0;
  int next_tag = 0;
  std::size_t late_cancels = 0;
  std::size_t late_pops = 0;
  std::size_t class_ties = 0;  // pops with the other class due at that time

  const auto pop_checked = [&](SimTime until, int step) {
    const auto got = queue.pop_due(until);
    const auto min = pending.begin();
    const auto [when, cls, tag] = min->first;
    if (when > until) {
      ASSERT_FALSE(got.has_value()) << "step " << step;
      return;
    }
    ASSERT_TRUE(got.has_value()) << "step " << step;
    ASSERT_EQ(got->when, when) << "step " << step;
    ASSERT_EQ(got->event.node, tag) << "step " << step;
    ASSERT_EQ(static_cast<SimTime>(got->event.id), got->when);
    for (auto it = std::next(min);
         it != pending.end() && std::get<0>(it->first) == when; ++it) {
      if (std::get<1>(it->first) != cls) {
        ++class_ties;
        break;
      }
    }
    late_pops += cls == 1 ? 1 : 0;
    pending.erase(min);
  };

  for (int step = 0; step < 20000; ++step) {
    const double dice = ops.uniform();
    if (dice < 0.5) {
      const bool late = dice < 0.25;
      SimTime when = 0;
      if (late) {
        frontier += static_cast<SimTime>(ops.uniform_int(std::uint64_t{2}));
        when = frontier;
      } else if (ops.uniform() < 0.7) {
        when =
            frontier + static_cast<SimTime>(ops.uniform_int(std::uint64_t{4}));
      } else {
        when = static_cast<SimTime>(
            ops.uniform_int(static_cast<std::uint64_t>(frontier) + 1));
      }
      const int tag = next_tag++;
      const sim::Event event{0, tag, static_cast<std::uint64_t>(when)};
      auto handle = queue.schedule(
          when, event,
          late ? sim::EventClass::kLate : sim::EventClass::kNormal);
      pending.emplace(Key{when, late ? 1 : 0, tag}, Pending{handle});
    } else if (dice < 0.62 && !pending.empty()) {
      auto it = pending.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           ops.uniform_int(pending.size())));
      ASSERT_TRUE(it->second.handle.cancel());
      late_cancels += std::get<1>(it->first) == 1 ? 1 : 0;
      pending.erase(it);
    } else if (!pending.empty()) {
      const SimTime until =
          ops.uniform() < 0.8
              ? kTimeNever
              : static_cast<SimTime>(ops.uniform_int(
                    static_cast<std::uint64_t>(frontier) + 4));
      pop_checked(until, step);
    } else {
      ASSERT_FALSE(queue.pop_due(kTimeNever).has_value()) << "step " << step;
    }
    ASSERT_EQ(queue.size(), pending.size()) << "step " << step;
    ASSERT_EQ(queue.empty(), pending.empty()) << "step " << step;
    ASSERT_EQ(queue.next_time(), pending.empty()
                                     ? kTimeNever
                                     : std::get<0>(pending.begin()->first))
        << "step " << step;
  }
  while (!pending.empty()) pop_checked(kTimeNever, -1);
  EXPECT_TRUE(queue.empty());
  // The run exercised what it claims to: late cancels, late pops and ties
  // between the classes that only the class could break.
  EXPECT_GT(late_cancels, 100u);
  EXPECT_GT(late_pops, 1000u);
  EXPECT_GT(class_ties, 100u);
}

}  // namespace
}  // namespace dare
