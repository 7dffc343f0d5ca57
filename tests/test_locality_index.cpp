// LocalityIndex unit tests plus a randomized equivalence oracle.
//
// The unit tests pin the incremental-maintenance contract for each event
// the index must absorb: replica create/evict, map launch/requeue, and job
// failure, with a FakeBlockMap standing in for the name node's locations
// (test_namenode pins the name node's side of that contract). The oracle
// drives an indexed JobTable through a randomized schedule and asserts
// every answer matches a front-to-back scan of the job's pending maps over
// the test's own replica map. The CandidateMap tests check the flat
// (key, map) table against a std::multimap model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fake_block_map.h"
#include "sched/job_table.h"
#include "sched/locality_index.h"

namespace dare::sched {
namespace {

JobSpec make_job(JobId id, const std::vector<BlockId>& blocks,
                 std::size_t reduces = 0) {
  JobSpec spec;
  spec.id = id;
  spec.reduces = reduces;
  for (BlockId b : blocks) {
    MapTaskSpec task;
    task.block = b;
    task.bytes = 1;
    spec.maps.push_back(task);
  }
  return spec;
}

using ReplicaMap = std::unordered_map<BlockId, std::set<NodeId>>;
using Candidates = std::vector<std::uint32_t>;

/// The reference the index must reproduce: the first pending position, in
/// a front-to-back scan, whose block has a replica on a node `near` accepts.
template <typename Near>
std::optional<std::size_t> scan_first(const JobRuntime& rt,
                                      const ReplicaMap& replicas, Near near) {
  for (std::size_t i = 0; i < rt.pending_maps.size(); ++i) {
    const auto it = replicas.find(rt.spec.maps[rt.pending_maps[i]].block);
    if (it == replicas.end()) continue;
    for (NodeId holder : it->second) {
      if (near(holder)) return i;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> scan_local(const JobRuntime& rt,
                                      const ReplicaMap& replicas,
                                      NodeId node) {
  return scan_first(rt, replicas, [&](NodeId h) { return h == node; });
}

std::optional<std::size_t> scan_rack_local(
    const JobRuntime& rt, const ReplicaMap& replicas,
    const std::vector<RackId>& node_rack, NodeId node) {
  const RackId rack = node_rack[static_cast<std::size_t>(node)];
  return scan_first(rt, replicas, [&](NodeId h) {
    return node_rack[static_cast<std::size_t>(h)] == rack;
  });
}

/// 4 nodes in 2 racks: nodes 0,1 in rack 0; nodes 2,3 in rack 1. `job_`
/// is the candidate state of the one job the tests watch maps of.
class LocalityIndexTest : public ::testing::Test {
 protected:
  FakeBlockMap blocks_;
  LocalityIndex index_{4, {0, 0, 1, 1}, 2, blocks_.source()};
  LocalityIndex::JobState job_;
};

TEST_F(LocalityIndexTest, RejectsBadConstruction) {
  EXPECT_THROW(LocalityIndex(0, {}, 1, blocks_.source()),
               std::invalid_argument);
  EXPECT_THROW(LocalityIndex(2, {0}, 1, blocks_.source()),
               std::invalid_argument);
  EXPECT_THROW(LocalityIndex(2, {0, 5}, 2, blocks_.source()),
               std::invalid_argument);
  EXPECT_THROW(LocalityIndex(2, {0, 0}, 1, nullptr), std::invalid_argument);
}

TEST_F(LocalityIndexTest, WatchAfterReplicaSeesExistingLocations) {
  blocks_.add(index_, 7, 0);
  blocks_.add(index_, 7, 2);
  index_.watch_map(job_, 0, 7);
  EXPECT_EQ(index_.node_candidates(job_, 0), Candidates{0});
  EXPECT_EQ(index_.node_candidates(job_, 1), Candidates{});
  EXPECT_EQ(index_.node_candidates(job_, 2), Candidates{0});
  // Rack candidates: rack 0 via node 0, rack 1 via node 2.
  EXPECT_EQ(index_.rack_candidates(job_, 1), Candidates{0});  // rack 0
  EXPECT_EQ(index_.rack_candidates(job_, 3), Candidates{0});  // rack 1
}

TEST_F(LocalityIndexTest, ReplicaAfterWatchReachesCandidates) {
  index_.watch_map(job_, 0, 7);
  EXPECT_TRUE(index_.node_candidates(job_, 0).empty());
  blocks_.add(index_, 7, 0);
  EXPECT_EQ(index_.node_candidates(job_, 0), Candidates{0});
  EXPECT_EQ(index_.rack_candidates(job_, 1), Candidates{0});
}

TEST_F(LocalityIndexTest, EvictionRemovesCandidateAndRackEntryAtZero) {
  index_.watch_map(job_, 0, 7);
  blocks_.add(index_, 7, 0);
  blocks_.add(index_, 7, 1);  // second replica in rack 0
  EXPECT_EQ(index_.rack_candidates(job_, 0), Candidates{0});
  blocks_.remove(index_, 7, 0);  // rack 0 still holds one replica
  EXPECT_TRUE(index_.node_candidates(job_, 0).empty());
  EXPECT_EQ(index_.node_candidates(job_, 1), Candidates{0});
  EXPECT_EQ(index_.rack_candidates(job_, 0), Candidates{0});
  blocks_.remove(index_, 7, 1);  // rack is now empty
  EXPECT_TRUE(index_.rack_candidates(job_, 0).empty());
}

TEST_F(LocalityIndexTest, UnwatchDropsAllCandidateEntries) {
  blocks_.add(index_, 7, 0);
  blocks_.add(index_, 7, 3);
  index_.watch_map(job_, 0, 7);
  index_.watch_map(job_, 1, 7);  // two maps of the same job reading block 7
  EXPECT_EQ(index_.node_candidates(job_, 0), (Candidates{0, 1}));
  index_.unwatch_map(job_, 0, 7);
  EXPECT_EQ(index_.node_candidates(job_, 0), Candidates{1});
  EXPECT_EQ(index_.rack_candidates(job_, 2), Candidates{1});
  index_.unwatch_map(job_, 1, 7);
  EXPECT_TRUE(index_.node_candidates(job_, 0).empty());
  EXPECT_TRUE(index_.rack_candidates(job_, 2).empty());
}

/// Map indices reported by the scheduler's query path (not the sorted
/// introspection copy) for `job` on `node`.
Candidates queried_node(const LocalityIndex& index,
                        const LocalityIndex::JobState& job, NodeId node) {
  Candidates out;
  index.for_each_node_candidate(job, node,
                                [&](std::uint32_t mi) { out.push_back(mi); });
  std::sort(out.begin(), out.end());
  return out;
}

Candidates queried_rack(const LocalityIndex& index,
                        const LocalityIndex::JobState& job, NodeId node) {
  Candidates out;
  index.for_each_rack_candidate(job, node,
                                [&](std::uint32_t mi) { out.push_back(mi); });
  std::sort(out.begin(), out.end());
  return out;
}

/// A requeued map's candidates are its block's replicas at the re-watch:
/// the entries its launch left behind (replica on A) must never answer,
/// even after the map is watched again.
TEST_F(LocalityIndexTest, RewatchReportsCurrentReplicasOnly) {
  constexpr NodeId kA = 0;  // rack 0
  constexpr NodeId kB = 2;  // rack 1
  blocks_.add(index_, 7, kA);
  index_.watch_map(job_, 0, 7);
  EXPECT_EQ(queried_node(index_, job_, kA), Candidates{0});
  index_.unwatch_map(job_, 0, 7);  // launch
  EXPECT_TRUE(queried_node(index_, job_, kA).empty());
  EXPECT_TRUE(queried_rack(index_, job_, kA).empty());

  blocks_.remove(index_, 7, kA);  // A loses the replica while the map runs
  blocks_.add(index_, 7, kB);    // and B gains one
  EXPECT_TRUE(queried_node(index_, job_, kB).empty());

  index_.watch_map(job_, 0, 7);  // requeue
  for (NodeId n = 0; n < 4; ++n) {
    const Candidates want = n == kB ? Candidates{0} : Candidates{};
    EXPECT_EQ(queried_node(index_, job_, n), want) << "node " << n;
    EXPECT_EQ(index_.node_candidates(job_, n), want) << "node " << n;
    const Candidates want_rack =
        index_.rack_of(n) == index_.rack_of(kB) ? Candidates{0}
                                                : Candidates{};
    EXPECT_EQ(queried_rack(index_, job_, n), want_rack) << "node " << n;
    EXPECT_EQ(index_.rack_candidates(job_, n), want_rack) << "node " << n;
  }
  EXPECT_EQ(job_.by_node.size(), 1u);
  EXPECT_EQ(job_.by_rack.size(), 1u);
}

/// JobTable + index integration: the index answer must equal the reference
/// scan at every step of a launch/requeue/fail lifecycle.
TEST(JobTableIndexTest, LaunchRequeueFailKeepCandidatesExact) {
  ReplicaMap replicas;
  const std::vector<RackId> node_rack{0, 0, 1, 1};

  FakeBlockMap blocks;
  LocalityIndex index(4, node_rack, 2, blocks.source());
  JobTable table;
  table.attach_locality_index(&index);

  const auto add_replica = [&](BlockId b, NodeId n) {
    replicas[b].insert(n);
    blocks.add(index, b, n);
  };
  add_replica(10, 0);
  add_replica(10, 2);
  add_replica(11, 1);
  add_replica(12, 3);

  table.add_job(make_job(1, {10, 11, 12}));
  const JobRuntime& rt = table.job(1);

  const auto expect_equal_everywhere = [&]() {
    for (NodeId n = 0; n < 4; ++n) {
      EXPECT_EQ(table.find_local_map(rt, n), scan_local(rt, replicas, n))
          << "local divergence on node " << n;
      EXPECT_EQ(table.find_rack_local_map(rt, n),
                scan_rack_local(rt, replicas, node_rack, n))
          << "rack divergence on node " << n;
    }
  };
  expect_equal_everywhere();

  // Launch the map local to node 0.
  const auto sel = table.find_local_map(rt, 0);
  ASSERT_TRUE(sel.has_value());
  const std::size_t launched = table.launch_map(1, *sel, Locality::kNodeLocal);
  EXPECT_EQ(rt.spec.maps[launched].block, 10);
  expect_equal_everywhere();
  EXPECT_FALSE(table.find_local_map(rt, 0).has_value());

  // Node death drops the replica; requeue puts the map back.
  replicas[10].erase(2);
  blocks.remove(index, 10, 2);
  table.requeue_running_map(1, launched, Locality::kNodeLocal);
  expect_equal_everywhere();
  EXPECT_TRUE(table.find_local_map(rt, 0).has_value());
  EXPECT_FALSE(table.find_local_map(rt, 2).has_value());

  // Job failure drops every pending map from the index, and retirement
  // frees the job's tables (the runtime stays resident: no retire
  // observer).
  table.fail_job(1, 100);
  EXPECT_TRUE(index.node_candidates(rt.locality, 0).empty());
  EXPECT_EQ(rt.locality.by_node.capacity(), 0u);
  EXPECT_EQ(rt.locality.by_rack.capacity(), 0u);
}

/// Randomized oracle: an indexed table driven through a random schedule
/// must answer every opportunity exactly as the reference scan does.
TEST(LocalityIndexOracleTest, RandomizedScheduleSelectsIdentically) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kRacks = 3;
  constexpr std::size_t kBlocks = 40;
  constexpr int kSteps = 4000;

  std::vector<RackId> node_rack(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    node_rack[n] = static_cast<RackId>(n % kRacks);
  }
  ReplicaMap replicas;

  FakeBlockMap blocks;
  LocalityIndex index(kNodes, node_rack, kRacks, blocks.source());
  JobTable table;
  table.attach_locality_index(&index);

  Rng rng(4242);
  JobId next_job = 0;
  std::vector<JobId> live_jobs;
  // Launched maps eligible for requeue/complete. A launched map's index
  // entries stay behind; `moved` records a replica delta on its block since
  // the launch, after which those entries are stale and a requeue must not
  // let them answer.
  struct Running {
    JobId job;
    std::size_t map_index;
    bool moved;
  };
  std::vector<Running> running;
  int stale_requeues = 0;

  const auto random_block = [&]() {
    return static_cast<BlockId>(rng.uniform_int(0, kBlocks - 1));
  };
  const auto random_node = [&]() {
    return static_cast<NodeId>(
        rng.uniform_int(0, static_cast<int>(kNodes) - 1));
  };

  for (int step = 0; step < kSteps; ++step) {
    const int action = rng.uniform_int(0, 9);
    if (action <= 1) {  // add/remove a replica
      const BlockId b = random_block();
      const NodeId n = random_node();
      if (replicas[b].count(n)) {
        replicas[b].erase(n);
        blocks.remove(index, b, n);
      } else {
        replicas[b].insert(n);
        blocks.add(index, b, n);
      }
      for (Running& r : running) {
        if (table.job(r.job).spec.maps[r.map_index].block == b) r.moved = true;
      }
    } else if (action == 2 && live_jobs.size() < 12) {  // new job
      std::vector<BlockId> blocks;
      const int maps = rng.uniform_int(1, 6);
      for (int m = 0; m < maps; ++m) blocks.push_back(random_block());
      table.add_job(make_job(next_job, blocks));
      live_jobs.push_back(next_job);
      ++next_job;
    } else if (action == 3 && !running.empty()) {  // requeue a running map
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(running.size()) - 1));
      const Running r = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      table.requeue_running_map(r.job, r.map_index, Locality::kOffRack);
      if (r.moved) ++stale_requeues;
    } else if (action == 4 && !running.empty()) {  // complete a running map
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(running.size()) - 1));
      const JobId job = running[pick].job;
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      table.complete_map(job, step);
      if (!table.has_job(job) || !table.job(job).active) {
        live_jobs.erase(
            std::find(live_jobs.begin(), live_jobs.end(), job));
      }
    } else if (action == 5 && !live_jobs.empty() &&
               rng.uniform_int(0, 19) == 0) {  // rare: kill a job
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_jobs.size()) - 1));
      const JobId job = live_jobs[pick];
      table.fail_job(job, step);
      live_jobs.erase(live_jobs.begin() + static_cast<std::ptrdiff_t>(pick));
      for (std::size_t r = running.size(); r-- > 0;) {
        if (running[r].job == job) {
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(r));
        }
      }
    } else if (!live_jobs.empty()) {  // scheduling opportunity
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_jobs.size()) - 1));
      const JobId job = live_jobs[pick];
      const JobRuntime& rt = table.job(job);
      const NodeId node = random_node();

      const auto local = table.find_local_map(rt, node);
      ASSERT_EQ(local, scan_local(rt, replicas, node))
          << "local divergence at step " << step << " job " << job
          << " node " << node;
      const auto rack = table.find_rack_local_map(rt, node);
      ASSERT_EQ(rack, scan_rack_local(rt, replicas, node_rack, node))
          << "rack divergence at step " << step << " job " << job << " node "
          << node;

      const auto chosen = local ? local : rack;
      if (chosen) {
        running.push_back(Running{
            job,
            table.launch_map(job, *chosen,
                             local ? Locality::kNodeLocal
                                   : Locality::kRackLocal),
            false});
      }
    }
  }
  // The schedule must keep exercising requeues whose launch-time entries
  // went stale.
  EXPECT_GE(stale_requeues, 50);
}

/// A block adopted onto many nodes (as DARE does with hot blocks): each
/// rack holds exactly one entry per map however many replicas it has, and
/// the rack entry leaves exactly when the rack's last replica does.
TEST(LocalityIndexManyReplicasTest, OneRackEntryPerMapAcrossManyReplicas) {
  constexpr std::size_t kNodes = 99;
  constexpr std::size_t kRacks = 3;
  std::vector<RackId> node_rack(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    node_rack[n] = static_cast<RackId>(n % kRacks);
  }
  FakeBlockMap blocks;
  LocalityIndex index(kNodes, node_rack, kRacks, blocks.source());
  LocalityIndex::JobState state;
  constexpr BlockId kBlock = 5;
  std::vector<NodeId> holders;
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (n % 10 == 9) continue;  // leave some nodes without a replica
    holders.push_back(static_cast<NodeId>(n));
    blocks.add(index, kBlock, static_cast<NodeId>(n));
  }
  ASSERT_GE(holders.size(), 64u);

  index.watch_map(state, 0, kBlock);
  EXPECT_EQ(state.by_node.size(), holders.size());
  EXPECT_EQ(state.by_rack.size(), kRacks);
  for (std::size_t r = 0; r < kRacks; ++r) {
    EXPECT_EQ(index.rack_candidates(state, static_cast<NodeId>(r)),
              Candidates{0})
        << "rack " << r;
  }
  for (NodeId n : holders) {
    EXPECT_EQ(index.node_candidates(state, n), Candidates{0}) << "node " << n;
  }

  // Empty rack 0 replica by replica: its entry stays until the last one.
  std::vector<NodeId> rack0;
  for (NodeId n : holders) {
    if (node_rack[static_cast<std::size_t>(n)] == 0) rack0.push_back(n);
  }
  for (std::size_t i = 0; i < rack0.size(); ++i) {
    blocks.remove(index, kBlock, rack0[i]);
    const bool last = i + 1 == rack0.size();
    EXPECT_EQ(index.rack_candidates(state, 0).empty(), last) << "after " << i;
  }
  EXPECT_EQ(state.by_rack.size(), kRacks - 1);
  EXPECT_EQ(state.by_node.size(), holders.size() - rack0.size());
  EXPECT_EQ(index.rack_candidates(state, 1), Candidates{0});
  EXPECT_EQ(index.rack_candidates(state, 2), Candidates{0});

  // A launch leaves the map's entries in the tables, but no query reports
  // them.
  index.unwatch_map(state, 0, kBlock);
  for (std::size_t n = 0; n < kNodes; ++n) {
    EXPECT_TRUE(index.node_candidates(state, static_cast<NodeId>(n)).empty())
        << "node " << n;
    EXPECT_TRUE(index.rack_candidates(state, static_cast<NodeId>(n)).empty())
        << "node " << n;
  }
  std::size_t racks_visited = 0;
  index.for_each_candidate_rack(state, [&](RackId) { ++racks_visited; });
  EXPECT_EQ(racks_visited, 0u);

  // While the map runs, rack 0 regains its replicas and rack 1 loses all of
  // its own; a re-watch (requeue) reports exactly the holders of that time.
  for (NodeId n : rack0) blocks.add(index, kBlock, n);
  std::set<NodeId> current;
  for (NodeId n : holders) {
    if (node_rack[static_cast<std::size_t>(n)] == 1) {
      blocks.remove(index, kBlock, n);
    } else {
      current.insert(n);
    }
  }
  index.watch_map(state, 0, kBlock);
  for (std::size_t n = 0; n < kNodes; ++n) {
    const auto node = static_cast<NodeId>(n);
    EXPECT_EQ(index.node_candidates(state, node),
              current.count(node) ? Candidates{0} : Candidates{})
        << "node " << n;
    EXPECT_EQ(index.rack_candidates(state, node),
              node_rack[n] == 1 ? Candidates{} : Candidates{0})
        << "node " << n;
  }
  EXPECT_EQ(state.by_node.size(), current.size());
  EXPECT_EQ(state.by_rack.size(), kRacks - 1);
}

/// WatchFlags against a vector<bool> model: random sets and clears across
/// the inline word and the spilled words, growth that keeps every flag,
/// and none() after each step.
TEST(WatchFlagsTest, MatchesModelAcrossTheInlineWord) {
  WatchFlags flags;
  std::vector<bool> model;
  Rng rng(64);
  for (int step = 0; step < 20000; ++step) {
    if (step % 500 == 0) {
      const auto maps = model.size() + static_cast<std::size_t>(
                                           rng.uniform_int(0, 40));
      flags.resize(maps);
      model.resize(maps, false);
    }
    if (model.empty()) continue;
    const auto mi = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(model.size()) - 1));
    const bool on = rng.uniform_int(0, 2) != 0;
    flags.set(mi, on);
    model[mi] = on;
    ASSERT_EQ(flags.test(mi), on) << "step " << step;
    ASSERT_EQ(flags.none(),
              std::find(model.begin(), model.end(), true) == model.end())
        << "step " << step;
    if (step % 97 == 0) {
      for (std::uint32_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(flags.test(i), model[i]) << "step " << step << " map " << i;
      }
    }
  }
  ASSERT_GT(model.size(), 600u);  // well past the inline word
}

/// A job past the inline word: launched maps at either side of map 64 stop
/// answering, and a requeued one answers again.
TEST(JobTableIndexTest, JobWithMoreMapsThanTheInlineWord) {
  constexpr std::size_t kMaps = 150;
  FakeBlockMap blocks;
  LocalityIndex index(4, {0, 0, 1, 1}, 2, blocks.source());
  JobTable table;
  table.attach_locality_index(&index);
  std::vector<BlockId> inputs;
  for (std::size_t i = 0; i < kMaps; ++i) {
    inputs.push_back(static_cast<BlockId>(i));
    blocks.add(index, static_cast<BlockId>(i), static_cast<NodeId>(i % 4));
  }
  table.add_job(make_job(1, inputs));
  const JobRuntime& rt = table.job(1);
  // Launch every map on node 2 (maps 2, 6, ..., 146), front to back.
  std::vector<std::size_t> launched;
  while (const auto sel = table.find_local_map(rt, 2)) {
    launched.push_back(table.launch_map(1, *sel, Locality::kNodeLocal));
  }
  EXPECT_EQ(launched.size(), 37u);
  EXPECT_TRUE(index.node_candidates(rt.locality, 2).empty());
  EXPECT_EQ(index.node_candidates(rt.locality, 3).size(), 37u);
  // Rack 1 still has node 3's maps, none of node 2's.
  for (std::uint32_t mi : index.rack_candidates(rt.locality, 2)) {
    EXPECT_EQ(mi % 4, 3u);
  }
  table.requeue_running_map(1, 130, Locality::kNodeLocal);
  EXPECT_EQ(index.node_candidates(rt.locality, 2), Candidates{130});
  table.requeue_running_map(1, 2, Locality::kNodeLocal);
  EXPECT_EQ(index.node_candidates(rt.locality, 2), (Candidates{2, 130}));
}

/// Every (key, map) pair stored under `key`, sorted.
Candidates entries_of(const CandidateMap& map, std::uint32_t key) {
  Candidates out;
  map.for_each(key, [&](std::uint32_t mi) { out.push_back(mi); });
  std::sort(out.begin(), out.end());
  return out;
}

using Model = std::multimap<std::uint32_t, std::uint32_t>;

Candidates entries_of(const Model& model, std::uint32_t key) {
  Candidates out;
  const auto [lo, hi] = model.equal_range(key);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same(const CandidateMap& map, const Model& model,
                 const std::vector<std::uint32_t>& keys) {
  ASSERT_EQ(map.size(), model.size());
  for (std::uint32_t k : keys) {
    ASSERT_EQ(entries_of(map, k), entries_of(model, k)) << "key " << k;
  }
}

TEST(CandidateMapTest, ChainWrappingPastTheLastSlot) {
  CandidateMap map;
  Model model;
  map.insert(0, 0);
  model.emplace(0, 0);
  ASSERT_EQ(map.capacity(), 8u);
  std::uint32_t wrap = 1;
  while (map.home(wrap) != map.capacity() - 1) ++wrap;
  std::vector<std::uint32_t> keys{0, wrap};
  // Three entries homed at the last slot: the chain wraps to the front.
  for (std::uint32_t mi = 10; mi < 13; ++mi) {
    map.insert(wrap, mi);
    model.emplace(wrap, mi);
    expect_same(map, model, keys);
  }
  ASSERT_EQ(map.capacity(), 8u);  // no growth: the wrap really happened
  // Erasing the entry in the last slot backward-shifts across the wrap.
  for (std::uint32_t mi : {10u, 12u}) {
    ASSERT_TRUE(map.erase(wrap, mi));
    model.erase(std::find_if(model.begin(), model.end(), [&](const auto& e) {
      return e.first == wrap && e.second == mi;
    }));
    expect_same(map, model, keys);
  }
  EXPECT_FALSE(map.erase(wrap, 10));
  EXPECT_FALSE(map.erase(0, 11));
  expect_same(map, model, keys);
}

/// erase_map drops every entry of one map index in one pass, including the
/// entries of a chain that wraps past the last slot, and leaves every other
/// entry reachable.
TEST(CandidateMapTest, EraseMapAcrossAWrappedChain) {
  CandidateMap map;
  Model model;
  map.insert(0, 3);
  model.emplace(0, 3);
  ASSERT_EQ(map.capacity(), 8u);
  std::uint32_t wrap = 1;
  while (map.home(wrap) != map.capacity() - 1) ++wrap;
  // Homed at the last slot: the chain runs 7, 0/1, 2, ... across the wrap,
  // mixing map 1's entries with map 2's.
  for (std::uint32_t mi : {1u, 2u, 1u}) {
    map.insert(wrap, mi);
    model.emplace(wrap, mi);
  }
  ASSERT_EQ(map.capacity(), 8u);
  EXPECT_EQ(map.erase_map(1), 2u);
  model.erase(std::find_if(model.begin(), model.end(), [&](const auto& e) {
    return e.first == wrap && e.second == 1;
  }));
  model.erase(std::find_if(model.begin(), model.end(), [&](const auto& e) {
    return e.first == wrap && e.second == 1;
  }));
  expect_same(map, model, {0, wrap});
  EXPECT_EQ(map.erase_map(1), 0u);
  EXPECT_EQ(map.erase_map(2), 1u);
  EXPECT_EQ(map.erase_map(3), 1u);
  EXPECT_EQ(map.size(), 0u);
}

/// Random rounds against the model: reserve() for the round's inserts, then
/// no insert of the round may double the table; then erase_map of random
/// map indices, each reporting exactly the model's count.
TEST(CandidateMapTest, ReserveAndEraseMapMatchModel) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 0; k < 24; ++k) keys.push_back(k);
  CandidateMap map;
  Model model;
  Rng rng(20261019);
  std::size_t erased_total = 0;
  for (int round = 0; round < 300; ++round) {
    const auto inserts = static_cast<std::size_t>(rng.uniform_int(0, 60));
    map.reserve(map.size() + inserts);
    const std::size_t capacity = map.capacity();
    ASSERT_GE(capacity, 2 * (map.size() + inserts)) << "round " << round;
    for (std::size_t i = 0; i < inserts; ++i) {
      const auto key = keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(keys.size()) - 1))];
      const auto mi = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
      map.insert(key, mi);
      model.emplace(key, mi);
    }
    ASSERT_EQ(map.capacity(), capacity) << "round " << round;
    for (int e = rng.uniform_int(0, 3); e > 0; --e) {
      const auto mi = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
      std::size_t want = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second == mi) {
          it = model.erase(it);
          ++want;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(map.erase_map(mi), want) << "round " << round;
      erased_total += want;
      expect_same(map, model, keys);
    }
  }
  EXPECT_GE(erased_total, 1000u);
}

/// Randomized model check against std::multimap: inserts with heavy key
/// duplication (a node holding many of a job's blocks), erases of present
/// and absent pairs, and growth from the smallest table. An absent erase
/// must report false and leave every key's contents as they were.
TEST(CandidateMapTest, MatchesMultimapModelUnderGrowthAndErase) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 0; k < 48; ++k) keys.push_back(k);
  keys.push_back(0x7FFFFFFFu);
  keys.push_back(CandidateMap::kEmptyKey - 1);  // largest legal key

  CandidateMap map;
  Model model;
  std::size_t growths = 0;
  Rng rng(20251017);
  for (int step = 0; step < 20000; ++step) {
    const auto key = keys[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(keys.size()) - 1))];
    const auto mi = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
    const int action = rng.uniform_int(0, 9);
    if (action < 6) {
      const std::size_t before = map.capacity();
      map.insert(key, mi);
      model.emplace(key, mi);
      if (map.capacity() != before) ++growths;
    } else {
      const auto [lo, hi] = model.equal_range(key);
      auto it = lo;
      while (it != hi && it->second != mi) ++it;
      const bool present = it != hi;
      ASSERT_EQ(map.erase(key, mi), present) << "step " << step;
      if (present) {
        model.erase(it);
      } else {
        expect_same(map, model, keys);
      }
    }
    if (step % 97 == 0) expect_same(map, model, keys);
    // Drain now and then so the table refills from sparse chains.
    if (step % 5000 == 4999) {
      for (const auto& [k, v] : model) ASSERT_TRUE(map.erase(k, v));
      model.clear();
      expect_same(map, model, keys);
    }
  }
  expect_same(map, model, keys);
  EXPECT_GE(growths, 6u);  // 8 -> 512 slots at least once
}

}  // namespace
}  // namespace dare::sched
