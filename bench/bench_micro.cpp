// Micro-benchmarks (google-benchmark) of the core data structures, proving
// the per-event costs the simulator's throughput rests on: the event queue,
// the ElephantTrap and LRU policy hooks, name-node metadata operations, and
// the heavy-tailed samplers.
#include <benchmark/benchmark.h>

#include <string>

#include "common/distributions.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "net/profile.h"
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

BENCHMARK_MAIN();
