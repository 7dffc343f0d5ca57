#include "cluster/slot_ledger.h"

#include <gtest/gtest.h>

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

/// Random take / give / clear_node / restore_node against a per-node model,
/// across word boundaries of the bitsets: after every operation the ledger
/// is consistent, its counts equal the model's, and a rotation walk from a
/// random start returns exactly the model's nodes for every (maps, reduces)
/// flag pair.
TEST(SlotLedger, FreeNodeWalkMatchesPerNodeModel) {
  constexpr std::size_t kMapSlots = 2;
  constexpr std::size_t kReduceSlots = 1;
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 130u}) {
    SCOPED_TRACE(testing::Message() << n << " nodes");
    SlotLedger ledger;
    ledger.reset(n, kMapSlots, kReduceSlots);
    std::vector<std::size_t> maps(n, kMapSlots);
    std::vector<std::size_t> reduces(n, kReduceSlots);
    Rng rng(1000 + n);
    const auto pick = [&](std::size_t k) {
      return static_cast<std::size_t>(rng.uniform_int(k));
    };
    for (int step = 0; step < 3000; ++step) {
      const std::size_t w = pick(n);
      switch (pick(10)) {
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
        default:
          break;  // no mutation: walk the unchanged ledger again
      }
      ASSERT_TRUE(ledger.consistent()) << "step " << step;
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(ledger.free_maps(v), maps[v]);
        ASSERT_EQ(ledger.free_reduces(v), reduces[v]);
      }
      const std::size_t start = pick(n);
      for (const bool want_maps : {false, true}) {
        for (const bool want_reduces : {false, true}) {
          std::vector<std::size_t> expected;
          for (std::size_t k = 0; k < n; ++k) {
            const std::size_t v = (start + k) % n;
            if ((want_maps && maps[v] > 0) ||
                (want_reduces && reduces[v] > 0)) {
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
