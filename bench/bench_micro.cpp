// Micro-benchmarks (google-benchmark) of the core data structures, proving
// the per-event costs the simulator's throughput rests on:
//   * the event queue: schedule + fire throughput of the slab/freelist
//     design with 16-byte event records, and the simulator's steady state:
//     N heartbeat chains re-armed at a fixed delay among other pending
//     events, all on the one heap (the chains in the late class);
//   * the ElephantTrap and LRU policy hooks, name-node metadata operations,
//     and the heavy-tailed samplers;
//   * the scheduler hot path: find_local_map, the inverted locality index's
//     answer for a job with many pending maps; FairScheduler::select_map on
//     an offer every job declines (the first walks the incrementally
//     maintained share set, every later one is answered by the node's
//     decline memo); and LocalityIndex watch + unwatch of one map as its
//     block's replica count R grows (the per-map index maintenance cost,
//     linear in R).
//
// Run with --benchmark_filter=... to narrow; plain invocation runs all.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/distributions.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "net/profile.h"
#include "sched/fair_scheduler.h"
#include "sched/job_table.h"
#include "sched/locality_index.h"
#include "sim/event_queue.h"
#include "storage/namenode.h"

namespace dare {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      queue.schedule(static_cast<SimTime>((i * 7919) % 100000),
                     sim::Event{0, 0, i});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 1.1);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(10000);

void BM_ElephantTrapHook(benchmark::State& state) {
  Rng rng(3);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  core::ElephantTrapParams params;
  params.p = 0.3;
  core::ElephantTrapPolicy policy(node, 64 * 128 * kMiB, params, rng);
  BlockId next = 0;
  for (auto _ : state) {
    const storage::BlockMeta meta{next % 256, (next % 256) / 4, 128 * kMiB};
    benchmark::DoNotOptimize(policy.on_map_task(meta, next % 3 == 0));
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ElephantTrapHook);

void BM_GreedyLruHook(benchmark::State& state) {
  Rng rng(4);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  core::GreedyLruPolicy policy(node, 64 * 128 * kMiB);
  BlockId next = 0;
  for (auto _ : state) {
    const storage::BlockMeta meta{next % 256, (next % 256) / 4, 128 * kMiB};
    benchmark::DoNotOptimize(policy.on_map_task(meta, next % 3 == 0));
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GreedyLruHook);

void BM_NameNodeCreateFile(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    storage::NameNode nn(19, nullptr, rng);
    state.ResumeTiming();
    for (int f = 0; f < 64; ++f) {
      std::string name = "f";
      name += std::to_string(f);
      nn.create_file(name, 4, 128 * kMiB, 3, 0);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_NameNodeCreateFile);

void BM_NameNodeLocations(benchmark::State& state) {
  Rng rng(6);
  storage::NameNode nn(19, nullptr, rng);
  const FileId f = nn.create_file("f", 256, 128 * kMiB, 3, 0);
  const auto& blocks = nn.file(f).blocks;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn.locations(blocks[i % blocks.size()]));
    ++i;
  }
}
BENCHMARK(BM_NameNodeLocations);

}  // namespace
}  // namespace dare

namespace dare::sched {
namespace {

constexpr std::size_t kNodes = 50;
constexpr std::size_t kRacks = 5;
constexpr int kReplication = 3;

/// Each block's holders, served as a LocalityIndex's locations source (the
/// name node's role in a cluster). A block never filled has none.
using HolderMap = std::unordered_map<BlockId, std::vector<NodeId>>;

LocalityIndex::Locations holders_of(HolderMap& holders) {
  return [&holders](BlockId b) -> const std::vector<NodeId>& {
    return holders[b];
  };
}

std::vector<RackId> node_racks() {
  std::vector<RackId> racks(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    racks[n] = static_cast<RackId>(n % kRacks);
  }
  return racks;
}

/// Deterministic synthetic replica map: block b lives on kReplication
/// consecutive nodes starting at (b * 7) % kNodes.
std::vector<NodeId> replica_nodes(BlockId b) {
  std::vector<NodeId> nodes;
  const auto base = static_cast<std::size_t>(b * 7) % kNodes;
  for (int r = 0; r < kReplication; ++r) {
    nodes.push_back(static_cast<NodeId>((base + static_cast<std::size_t>(r) *
                                                    11) %
                                        kNodes));
  }
  // Dedup (base+11, base+22 collisions are possible for small kNodes).
  std::vector<NodeId> unique;
  for (NodeId n : nodes) {
    bool seen = false;
    for (NodeId u : unique) seen = seen || u == n;
    if (!seen) unique.push_back(n);
  }
  return unique;
}

JobSpec pending_heavy_job(JobId id, std::size_t maps) {
  JobSpec spec;
  spec.id = id;
  spec.reduces = 0;
  for (std::size_t m = 0; m < maps; ++m) {
    MapTaskSpec task;
    task.block = static_cast<BlockId>(m);
    task.bytes = 1;
    spec.maps.push_back(task);
  }
  return spec;
}

void BM_FindLocalMap(benchmark::State& state) {
  const auto maps = static_cast<std::size_t>(state.range(0));
  HolderMap holders;
  for (BlockId b = 0; b < static_cast<BlockId>(maps); ++b) {
    holders[b] = replica_nodes(b);
  }
  LocalityIndex index(kNodes, node_racks(), kRacks, holders_of(holders));
  JobTable table;
  table.attach_locality_index(&index);
  table.add_job(pending_heavy_job(1, maps));
  const JobRuntime& rt = table.job(1);
  NodeId node = 0;
  for (auto _ : state) {
    auto found = table.find_local_map(rt, node);
    benchmark::DoNotOptimize(found);
    node = static_cast<NodeId>((node + 1) % kNodes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Build a table of `jobs` active jobs with pending + some running maps so
/// the fair ordering has real work to do. The index holds no replicas, so
/// no job is ever local to the probed node: the first select_map walks the
/// full fair order and returns nothing, and since nothing changes and no
/// delay expires, every later offer is a decline-memo answer (the cost of a
/// declined offer in steady state).
void BM_FairSelect(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  HolderMap holders;
  LocalityIndex index(kNodes, node_racks(), kRacks, holders_of(holders));
  JobTable table;
  table.attach_locality_index(&index);
  for (std::size_t j = 0; j < jobs; ++j) {
    auto spec = pending_heavy_job(static_cast<JobId>(j), 4);
    table.add_job(spec);
    // Vary running counts so shares differ and the order is non-trivial.
    if (j % 3 != 0) {
      table.launch_map(static_cast<JobId>(j), 0, Locality::kOffRack);
      if (j % 3 == 2) {
        table.launch_map(static_cast<JobId>(j), 0, Locality::kOffRack);
      }
    }
  }
  FairScheduler scheduler(/*node_delay=*/1000000, /*rack_delay=*/1000000);
  SimTime now = 1;
  for (auto _ : state) {
    auto selection = scheduler.select_map(0, now, table);
    benchmark::DoNotOptimize(selection);
    ++now;  // keep every job inside its delay window (always declined)
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// One watch plus one unwatch of a map whose block has R replicas, on an
/// EC2-shaped topology (two nodes per rack, replicas in distinct racks, as
/// DARE's adoptions scatter them). Each iteration is one pending map entering
/// and leaving the index, so the time per iteration is the per-map cost as a
/// function of R.
void BM_WatchUnwatch(benchmark::State& state) {
  constexpr std::size_t kWideNodes = 1024;
  const auto replicas = static_cast<std::size_t>(state.range(0));
  std::vector<RackId> racks(kWideNodes);
  for (std::size_t n = 0; n < kWideNodes; ++n) {
    racks[n] = static_cast<RackId>(n / 2);
  }
  const BlockId block = 0;
  HolderMap holders;
  for (std::size_t r = 0; r < replicas; ++r) {
    holders[block].push_back(static_cast<NodeId>(r * (kWideNodes / replicas)));
  }
  LocalityIndex index(kWideNodes, racks, kWideNodes / 2, holders_of(holders));
  LocalityIndex::JobState job;
  for (auto _ : state) {
    index.watch_map(job, 0, block);
    index.unwatch_map(job, 0, block);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_EventQueue_ScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  // A record shaped like the cluster's map completions (kind, worker, task
  // key), fired into a trivial dispatch.
  std::uint64_t sink = 0;
  SimTime t = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      queue.schedule(++t, sim::Event{3, static_cast<std::int32_t>(i & 63),
                                     (std::uint64_t{1} << 20) | i});
    }
    while (!queue.empty()) {
      const sim::Event event = queue.pop();
      sink += event.id + static_cast<std::uint64_t>(event.node);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}

/// N late-class chains staggered over one 3 s interval, each re-armed at
/// +3 s when it fires, among N/4 normal-class events that each re-arm at a
/// random delay (the cluster's heartbeats among its task completions, on
/// one class-ordered heap). One iteration is one pop plus one schedule, so
/// the time per iteration is the cost per event.
void BM_EventQueue_LateChains(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  constexpr SimTime kInterval = 3'000'000;
  constexpr std::uint32_t kBeat = 1;
  constexpr std::uint32_t kOther = 3;
  std::uint64_t lcg = 42;
  const auto random_delay = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<SimTime>((lcg >> 33) % (2 * kInterval));
  };
  sim::EventQueue queue;
  const auto arm_beat = [&](SimTime when, std::int32_t node) {
    queue.schedule(when, sim::Event{kBeat, node, 0}, sim::EventClass::kLate);
  };
  for (std::size_t w = 0; w < chains; ++w) {
    arm_beat(kInterval * static_cast<SimTime>(w + 1) /
                 static_cast<SimTime>(chains),
             static_cast<std::int32_t>(w));
  }
  for (std::size_t i = 0; i < chains / 4; ++i) {
    queue.schedule(random_delay(), sim::Event{kOther, 0, i});
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const auto next = queue.pop_due(kTimeNever);
    if (next->event.kind == kBeat) {
      arm_beat(next->when + kInterval, next->event.node);
    } else {
      queue.schedule(next->when + random_delay(), next->event);
    }
    sink += next->event.id + static_cast<std::uint64_t>(next->event.node);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_FindLocalMap)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_FairSelect)->Arg(50)->Arg(500);
BENCHMARK(BM_WatchUnwatch)->Arg(3)->Arg(64)->Arg(512);
BENCHMARK(BM_EventQueue_ScheduleFire)->Arg(1024);
BENCHMARK(BM_EventQueue_LateChains)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace dare::sched


BENCHMARK_MAIN();
