#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace dare::sim {
namespace {

/// A record tagged by `id`, so tests can tell which event popped.
Event tagged(std::uint64_t id) { return Event{0, 0, id}; }

/// Pop every remaining event and return their ids in firing order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> fired;
  while (!q.empty()) fired.push_back(q.pop().id);
  return fired;
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(30, tagged(3));
  q.schedule(10, tagged(1));
  q.schedule(20, tagged(2));
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampFiresInInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(5, tagged(i));
  const auto fired = drain(q);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, PopReturnsTheScheduledRecord) {
  EventQueue q;
  q.schedule(123, Event{7, -3, 0xDEADBEEFCAFEULL});
  EXPECT_EQ(q.next_time(), 123);
  const Event event = q.pop();
  EXPECT_EQ(event.kind, 7u);
  EXPECT_EQ(event.node, -3);
  EXPECT_EQ(event.id, 0xDEADBEEFCAFEULL);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  auto handle = q.schedule(10, tagged(1));
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
  EXPECT_TRUE(drain(q).empty());
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  auto handle = q.schedule(10, tagged(1));
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventQueue, CancelledEventSkippedAmongLive) {
  EventQueue q;
  q.schedule(10, tagged(1));
  auto handle = q.schedule(20, tagged(2));
  q.schedule(30, tagged(3));
  handle.cancel();
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(EventQueue, HandleNotPendingAfterFire) {
  EventQueue q;
  auto handle = q.schedule(1, tagged(1));
  q.pop();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventQueue, ScheduleBetweenPops) {
  // The owner reacts to a popped event by scheduling more: the new record
  // takes its place in time order.
  EventQueue q;
  q.schedule(10, tagged(1));
  q.schedule(30, tagged(3));
  EXPECT_EQ(q.pop().id, 1u);
  q.schedule(20, tagged(2));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{2, 3}));
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(10, tagged(1));
  q.schedule(20, tagged(2));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, RejectsInvalidScheduling) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1, tagged(1)), std::invalid_argument);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto h1 = q.schedule(1, tagged(1));
  auto h2 = q.schedule(2, tagged(2));
  EXPECT_EQ(q.size(), 2u);
  h1.cancel();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  (void)h2;
}

TEST(EventQueue, StaleHandleSurvivesSlotRecycling) {
  EventQueue q;
  auto old = q.schedule(1, tagged(1));
  q.pop();  // slot drained and returned to the freelist
  // The next event reuses the slot; the old handle's generation no longer
  // matches and must neither report pending nor cancel the new occupant.
  auto fresh = q.schedule(2, tagged(2));
  EXPECT_FALSE(old.pending());
  EXPECT_FALSE(old.cancel());
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.pop().id, 2u);
}

TEST(EventQueue, StaleHandleSafeAfterClear) {
  EventQueue q;
  auto h1 = q.schedule(10, tagged(1));
  auto h2 = q.schedule(20, tagged(2));
  h2.cancel();
  q.clear();
  EXPECT_FALSE(h1.pending());
  EXPECT_FALSE(h1.cancel());
  EXPECT_FALSE(h2.cancel());
  // The queue is reusable after clear, and old handles stay inert.
  q.schedule(5, tagged(3));
  EXPECT_FALSE(h1.pending());
  EXPECT_EQ(q.pop().id, 3u);
}

TEST(EventQueue, CancelledTombstoneReclaimedBySkim) {
  EventQueue q;
  auto doomed = q.schedule(5, tagged(1));
  q.schedule(10, tagged(2));
  doomed.cancel();
  // next_time() skims the cancelled top entry, recycling its record; the
  // next schedule must reuse that slot instead of growing the slab.
  EXPECT_EQ(q.next_time(), 10);
  const std::size_t slab_before = q.slab_size();
  q.schedule(15, tagged(3));
  EXPECT_EQ(q.slab_size(), slab_before);
}

TEST(EventQueue, LateClassFiresAfterEveryNormalTie) {
  // At one time every kNormal entry fires before any kLate one, whichever
  // was scheduled first; within a class, scheduling order decides.
  EventQueue late_first;
  late_first.schedule(5, tagged(1), EventClass::kLate);
  late_first.schedule(5, tagged(2));
  late_first.schedule(5, tagged(3), EventClass::kLate);
  late_first.schedule(5, tagged(4));
  EXPECT_EQ(drain(late_first), (std::vector<std::uint64_t>{2, 4, 1, 3}));

  EventQueue normal_first;
  normal_first.schedule(5, tagged(1));
  normal_first.schedule(5, tagged(2), EventClass::kLate);
  normal_first.schedule(5, tagged(3));
  EXPECT_EQ(drain(normal_first), (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(EventQueue, ClassOrdersOnlyTies) {
  // The class breaks ties and nothing else: an earlier kLate entry fires
  // before a later kNormal one.
  EventQueue q;
  q.schedule(10, tagged(2), EventClass::kLate);
  q.schedule(30, tagged(4));
  q.schedule(20, tagged(3), EventClass::kLate);
  q.schedule(5, tagged(1));
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(EventQueue, CancelledLateEntryNeverFires) {
  EventQueue q;
  auto doomed = q.schedule(10, tagged(1), EventClass::kLate);
  q.schedule(20, tagged(2), EventClass::kLate);
  q.schedule(15, tagged(3));
  EXPECT_TRUE(doomed.cancel());
  EXPECT_FALSE(doomed.pending());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 15);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{3, 2}));
}

TEST(EventQueue, PopDueLeavesLaterEvents) {
  EventQueue q;
  q.schedule(10, tagged(1), EventClass::kLate);
  q.schedule(20, tagged(2));
  EXPECT_FALSE(q.pop_due(9).has_value());
  const auto first = q.pop_due(10);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->when, 10);
  EXPECT_EQ(first->event.id, 1u);
  EXPECT_FALSE(q.pop_due(19).has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_due(kTimeNever)->event.id, 2u);
  EXPECT_FALSE(q.pop_due(kTimeNever).has_value());
}

TEST(EventQueue, LateEntriesKeepSchedulingOrderAcrossGrowth) {
  // Chains re-armed at one shared time, hundreds deep: the heap must keep
  // their scheduling order while it grows and shrinks.
  EventQueue q;
  std::uint64_t next_id = 0;
  std::uint64_t expect = 0;
  for (int i = 0; i < 50; ++i) {
    q.schedule(7, tagged(next_id++), EventClass::kLate);
  }
  for (int i = 0; i < 40; ++i) EXPECT_EQ(q.pop().id, expect++);
  for (int i = 0; i < 300; ++i) {
    q.schedule(7, tagged(next_id++), EventClass::kLate);
  }
  while (!q.empty()) EXPECT_EQ(q.pop().id, expect++);
  EXPECT_EQ(expect, next_id);
}

TEST(EventQueue, MillionEventChurnKeepsSlabBounded) {
  // Regression test for tombstone leaks: schedule and cancel/fire a million
  // events in waves. The slab must stay bounded by the per-wave live peak
  // (records recycle) rather than growing with the total event count.
  constexpr std::size_t kWaves = 100;
  constexpr std::size_t kPerWave = 10000;
  EventQueue q;
  std::size_t fired = 0;
  std::size_t slab_peak = 0;
  SimTime t = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<EventHandle> handles;
    handles.reserve(kPerWave);
    for (std::size_t i = 0; i < kPerWave; ++i) {
      handles.push_back(q.schedule(++t, tagged(i)));
    }
    // Cancel every other event, fire the rest.
    for (std::size_t i = 0; i < kPerWave; i += 2) handles[i].cancel();
    while (!q.empty()) {
      q.pop();
      ++fired;
    }
    slab_peak = std::max(slab_peak, q.slab_size());
  }
  EXPECT_EQ(fired, kWaves * kPerWave / 2);
  EXPECT_EQ(q.size(), 0u);
  // 1,000,000 events passed through; the slab must hold only one wave's
  // worth of records (plus nothing — every slot recycles).
  EXPECT_LE(slab_peak, kPerWave);
}

}  // namespace
}  // namespace dare::sim
