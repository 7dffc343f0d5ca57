#include "cluster/slot_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dare::cluster {
namespace {

/// The nodes a sweep from `start` visits: [start, n) then [0, start), each
/// range walked with next_free, as Cluster::try_assign_all walks it.
std::vector<std::size_t> walk(const SlotLedger& ledger, std::size_t start,
                              bool maps, bool reduces) {
  std::vector<std::size_t> visited;
  const std::size_t n = ledger.nodes();
  for (const auto& [lo, hi] :
       {std::pair{start, n}, std::pair{std::size_t{0}, start}}) {
    for (std::size_t w = ledger.next_free(lo, hi, maps, reduces); w < hi;
         w = ledger.next_free(w + 1, hi, maps, reduces)) {
      visited.push_back(w);
    }
  }
  return visited;
}

TEST(SlotLedger, StartsFullAndTracksEveryMutation) {
  SlotLedger ledger;
  ledger.reset(3, 2, 1);
  EXPECT_EQ(walk(ledger, 1, true, false), (std::vector<std::size_t>{1, 2, 0}));
  ledger.take_map(1);
  ledger.take_map(1);
  EXPECT_EQ(walk(ledger, 0, true, false), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(walk(ledger, 0, true, true), (std::vector<std::size_t>{0, 1, 2}));
  ledger.clear_node(2);
  EXPECT_EQ(walk(ledger, 0, false, true), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(walk(ledger, 0, false, false).empty());
  ledger.restore_node(2);
  ledger.give_map(1);
  EXPECT_EQ(walk(ledger, 2, true, false), (std::vector<std::size_t>{2, 0, 1}));
  EXPECT_TRUE(ledger.consistent());
}

/// A closed node is never offered, whatever its free slots, for either
/// kind and on either side of a word boundary; reopened, it is offered
/// again.
TEST(SlotLedger, ClosedNodesAreNeverOffered) {
  SlotLedger ledger;
  ledger.reset(130, 2, 1);
  for (const std::size_t w : {0u, 63u, 64u, 127u, 129u}) {
    ledger.set_open(w, false);
    EXPECT_FALSE(ledger.open(w));
  }
  for (const bool maps : {false, true}) {
    const bool reduces = !maps;
    const auto visited = walk(ledger, 100, maps, reduces);
    EXPECT_EQ(visited.size(), 125u);
    for (const std::size_t w : {0u, 63u, 64u, 127u, 129u}) {
      EXPECT_EQ(std::count(visited.begin(), visited.end(), w), 0);
    }
    // Word-boundary neighbours of the closed nodes are still offered.
    EXPECT_EQ(ledger.next_free(63, 130, maps, reduces), 65u);
    EXPECT_EQ(ledger.next_free(127, 130, maps, reduces), 128u);
    EXPECT_EQ(ledger.next_free(129, 130, maps, reduces), 130u);
  }
  // Closing leaves the counts and free bits alone: a closed node still
  // takes and returns slots (its running tasks finish).
  ledger.take_map(64);
  ledger.give_map(64);
  EXPECT_TRUE(ledger.consistent());
  ledger.set_open(64, true);
  EXPECT_TRUE(ledger.open(64));
  EXPECT_EQ(ledger.next_free(63, 130, true, false), 64u);
  EXPECT_EQ(ledger.next_free(63, 130, false, true), 64u);
  // A reopened node with no free slot of a wanted kind stays unoffered.
  ledger.take_reduce(64);
  EXPECT_EQ(ledger.next_free(63, 130, false, true), 65u);
}

/// Random take / give / clear_node / restore_node / set_open against a
/// per-node model, across word boundaries of the bitsets: after every
/// operation the ledger is consistent, its counts and open bits equal the
/// model's, and a rotation walk from a random start returns exactly the
/// model's open nodes for every (maps, reduces) flag pair.
TEST(SlotLedger, FreeNodeWalkMatchesPerNodeModel) {
  constexpr std::size_t kMapSlots = 2;
  constexpr std::size_t kReduceSlots = 1;
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(testing::Message() << n << " nodes");
    SlotLedger ledger;
    ledger.reset(n, kMapSlots, kReduceSlots);
    std::vector<std::size_t> maps(n, kMapSlots);
    std::vector<std::size_t> reduces(n, kReduceSlots);
    std::vector<bool> open(n, true);
    Rng rng(1000 + n);
    const auto pick = [&](std::size_t k) {
      return static_cast<std::size_t>(rng.uniform_int(k));
    };
    for (int step = 0; step < 3000; ++step) {
      const std::size_t w = pick(n);
      switch (pick(12)) {
        case 0:
        case 1:
          if (maps[w] > 0) {
            ledger.take_map(w);
            --maps[w];
          }
          break;
        case 2:
        case 3:
          if (maps[w] < kMapSlots) {
            ledger.give_map(w);
            ++maps[w];
          }
          break;
        case 4:
          if (reduces[w] > 0) {
            ledger.take_reduce(w);
            --reduces[w];
          }
          break;
        case 5:
          if (reduces[w] < kReduceSlots) {
            ledger.give_reduce(w);
            ++reduces[w];
          }
          break;
        case 6:
          ledger.clear_node(w);
          maps[w] = 0;
          reduces[w] = 0;
          break;
        case 7:
          ledger.restore_node(w);
          maps[w] = kMapSlots;
          reduces[w] = kReduceSlots;
          break;
        case 8:
        case 9:
          open[w] = !open[w];
          ledger.set_open(w, open[w]);
          break;
        default:
          break;  // no mutation: walk the unchanged ledger again
      }
      ASSERT_TRUE(ledger.consistent()) << "step " << step;
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(ledger.free_maps(v), maps[v]);
        ASSERT_EQ(ledger.free_reduces(v), reduces[v]);
        ASSERT_EQ(ledger.open(v), open[v]);
      }
      const std::size_t start = pick(n);
      for (const bool want_maps : {false, true}) {
        for (const bool want_reduces : {false, true}) {
          std::vector<std::size_t> expected;
          for (std::size_t k = 0; k < n; ++k) {
            const std::size_t v = (start + k) % n;
            if (open[v] && ((want_maps && maps[v] > 0) ||
                            (want_reduces && reduces[v] > 0))) {
              expected.push_back(v);
            }
          }
          ASSERT_EQ(walk(ledger, start, want_maps, want_reduces), expected)
              << "step " << step << ", start " << start << ", maps "
              << want_maps << ", reduces " << want_reduces;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dare::cluster
