// The observability layer's core contract, enforced end-to-end:
//
//  1. Tracing only observes. Attaching a TraceCollector (and PhaseProfiler)
//     to a run must leave metrics::fingerprint bit-identical to the same
//     seeded run without them — for the CCT and EC2 profiles, and under
//     stochastic churn. A tracer that consumed an RNG draw, perturbed float
//     summation order, or extended the event horizon would show up here.
//
//  2. Traced runs are themselves deterministic: two same-seed runs export
//     byte-identical Chrome-trace JSON and events CSV (timestamps are
//     sim-time only; dare_lint bans wall clocks in src/obs).
//
//  3. Every map attempt's timeline slice closes: the attempt that wins, the
//     losers it kills, attempts swept off a lost node (zombies whose
//     completion already fired included) and the attempts of a failed job.
//
//  4. A run that fires every kind of simulator event keeps its pinned
//     fingerprint and export digests, so a refactor of the event engine
//     that reorders any two kinds shows up here. The greedy LRU and LFU
//     cases pin the adoption gate's adopt, evict and skip rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "cluster/experiment.h"
#include "metrics/run_metrics.h"
#include "obs/phase_profiler.h"
#include "obs/trace_collector.h"
#include "obs/trace_export.h"

namespace dare::cluster {
namespace {

constexpr std::size_t kNodes = 10;
constexpr std::size_t kJobs = 60;

std::uint64_t untraced_digest(const ClusterOptions& options,
                              const workload::Workload& wl) {
  return metrics::fingerprint(run_once(options, wl));
}

std::uint64_t traced_digest(ClusterOptions options,
                            const workload::Workload& wl,
                            obs::TraceCollector* tracer,
                            obs::PhaseProfiler* profiler = nullptr) {
  options.tracer = tracer;
  options.profiler = profiler;
  return metrics::fingerprint(run_once(options, wl));
}

void expect_tracing_is_pure(const ClusterOptions& options) {
  const auto wl = standard_wl1(kNodes, kJobs);
  const auto bare = untraced_digest(options, wl);

  obs::TraceCollector tracer;
  obs::PhaseProfiler profiler;
  EXPECT_EQ(traced_digest(options, wl, &tracer, &profiler), bare)
      << "attaching the tracer changed the metrics fingerprint";
  EXPECT_GT(tracer.size(), 0u) << "tracer attached but saw no events";
}

TEST(TraceDeterminism, TracingDoesNotPerturbFingerprintCct) {
  expect_tracing_is_pure(paper_defaults(net::cct_profile(kNodes),
                                        SchedulerKind::kFair,
                                        PolicyKind::kElephantTrap));
}

TEST(TraceDeterminism, TracingDoesNotPerturbFingerprintEc2) {
  expect_tracing_is_pure(paper_defaults(net::ec2_profile(kNodes),
                                        SchedulerKind::kFifo,
                                        PolicyKind::kGreedyLru));
}

TEST(TraceDeterminism, TracingDoesNotPerturbFingerprintUnderChurn) {
  // Churn exercises the remaining emitters (node_failed, declared-dead,
  // rejoin, repair, attempt faults) — and is the likeliest place for an
  // accidental extra RNG draw to hide.
  auto options = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kGreedyLru);
  options.faults.enabled = true;
  options.faults.mtbf_s = 80.0;
  options.faults.mttr_s = 20.0;
  options.faults.permanent_fraction = 0.2;
  options.faults.rack_correlation = 0.2;
  options.faults.task_failure_prob = 0.01;
  options.faults.min_live_workers = 4;
  options.rereplication_interval = from_seconds(2.0);
  expect_tracing_is_pure(options);
}

TEST(TraceDeterminism, SampledGaugesDoNotPerturbFingerprint) {
  auto options = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.trace_sample_interval = from_seconds(1.0);
  const auto wl = standard_wl1(kNodes, kJobs);
  const auto bare = untraced_digest(options, wl);

  obs::TraceCollector tracer;
  EXPECT_EQ(traced_digest(options, wl, &tracer), bare)
      << "the gauge sampler changed the metrics fingerprint";
  EXPECT_GT(tracer.series().size(), 0u) << "sampler scheduled but never ran";
}

struct Export {
  std::string json;
  std::string events_csv;
  std::string series_csv;
  std::uint64_t digest = 0;
};

Export traced_export(const ClusterOptions& base,
                     const workload::Workload& wl) {
  auto options = base;
  obs::TraceCollector tracer;
  options.tracer = &tracer;
  Export e;
  e.digest = metrics::fingerprint(run_once(options, wl));
  std::ostringstream json;
  obs::write_chrome_trace(tracer, json);
  e.json = json.str();
  std::ostringstream csv;
  obs::write_events_csv(tracer, csv);
  e.events_csv = csv.str();
  std::ostringstream series;
  tracer.series().write_csv(series);
  e.series_csv = series.str();
  return e;
}

TEST(TraceDeterminism, SameSeedExportsAreByteIdentical) {
  auto options = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.trace_sample_interval = from_seconds(1.0);
  const auto wl = standard_wl1(kNodes, kJobs);

  const auto first = traced_export(options, wl);
  const auto second = traced_export(options, wl);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.json, second.json)
      << "same seed, different Chrome-trace bytes";
  EXPECT_EQ(first.events_csv, second.events_csv)
      << "same seed, different events CSV";
  EXPECT_EQ(first.series_csv, second.series_csv)
      << "same seed, different time-series CSV";
  EXPECT_FALSE(first.json.empty());
  EXPECT_NE(first.events_csv.find('\n'), std::string::npos);
}

/// Map slices write_chrome_trace would leave open: launches (original,
/// speculative, clone) paired with the events that end an attempt, keyed by
/// (node, job, map index) the way the exporter keys them.
std::size_t open_map_slices(const obs::TraceCollector& tracer) {
  using obs::EventKind;
  std::map<std::tuple<NodeId, JobId, std::int64_t>, std::size_t> open;
  for (const obs::TraceEvent& e : tracer.events()) {
    const auto key = std::make_tuple(e.node, e.job, e.task);
    switch (e.kind) {
      case EventKind::kMapLaunched:
      case EventKind::kMapSpeculated:
      case EventKind::kCloneLaunched:
        ++open[key];
        break;
      case EventKind::kMapFinished:
      case EventKind::kMapKilled:
      case EventKind::kCloneKilled:
      case EventKind::kTaskAttemptFault: {
        const auto it = open.find(key);
        if (it != open.end() && it->second > 0) --it->second;
        break;
      }
      default:
        break;
    }
  }
  std::size_t total = 0;
  for (const auto& [key, count] : open) total += count;
  return total;
}

TEST(TraceDeterminism, KilledMapAttemptsCloseTheirSlices) {
  // Speculation, cloning, node churn and job failure together reach every
  // way a map attempt is killed.
  for (const auto scheduler : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      auto options = paper_defaults(net::ec2_profile(24), scheduler,
                                    PolicyKind::kElephantTrap, seed);
      options.enable_speculation = true;
      options.enable_task_cloning = true;
      options.clone_budget_fraction = 0.2;
      options.faults.enabled = true;
      options.faults.mtbf_s = 90.0;
      options.faults.mttr_s = 20.0;
      options.faults.permanent_fraction = 0.2;
      options.faults.task_failure_prob = 0.08;
      options.faults.min_live_workers = 4;
      options.max_task_attempts = 2;
      obs::TraceCollector tracer;
      options.tracer = &tracer;
      run_once(options, standard_wl1(24, 120, 1));
      EXPECT_EQ(open_map_slices(tracer), 0u)
          << scheduler_name(scheduler) << " seed " << seed;
    }
  }
}

/// 64-bit FNV-1a over a whole export.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

struct AllKindsCase {
  const char* name;
  SchedulerKind scheduler;
  PolicyKind policy;
  bool scarlett;
  /// Replication budget; 0 keeps paper_defaults' value. A case that sets
  /// one must trace every outcome row of the adoption gate.
  double budget_fraction;
  std::uint64_t fingerprint;
  std::uint64_t events_csv;
  std::uint64_t chrome_trace;
};

/// Every fault layer, both hedging mechanisms, the sampler and all three
/// kinds of scripted event on a small multi-rack EC2 cluster.
ClusterOptions all_kinds_options(const AllKindsCase& c) {
  auto options =
      paper_defaults(net::ec2_profile(24), c.scheduler, c.policy, /*seed=*/1);
  options.faults.enabled = true;
  options.faults.mtbf_s = 90.0;
  options.faults.mttr_s = 20.0;
  options.faults.permanent_fraction = 0.2;
  options.faults.rack_correlation = 0.2;
  options.faults.task_failure_prob = 0.05;
  options.faults.min_live_workers = 4;
  options.max_task_attempts = 3;
  options.corruption.enabled = true;
  options.corruption.bitrot_per_gb = 0.05;
  options.corruption.sector_mtbf_s = 30.0;
  options.stragglers.enabled = true;
  options.stragglers.degrade_mtbf_s = 120.0;
  options.stragglers.degrade_duration_s = 30.0;
  options.stragglers.rack_correlation = 0.3;
  options.stragglers.tail_prob = 0.1;
  options.enable_straggler_detection = true;
  options.straggler_detect_min_samples = 2;
  options.netfault.enabled = true;
  options.netfault.partition_mtbf_s = 150.0;
  options.netfault.partition_duration_s = 15.0;
  options.netfault.link_degrade_mtbf_s = 90.0;
  options.netfault.link_degrade_duration_s = 30.0;
  options.enable_speculation = true;
  options.enable_task_cloning = true;
  options.clone_budget_fraction = 0.15;
  options.rereplication_interval = from_seconds(1.0);
  options.rereplication_batch = 16;
  options.failures = {
      {from_seconds(12.0), 3, faults::FaultKind::kTransient,
       from_seconds(25.0)},
      {from_seconds(30.0), 7, faults::FaultKind::kPermanent, 0},
  };
  options.corruption_events = {
      {from_seconds(8.0), 5, kInvalidNode},
      {from_seconds(9.0), 11, 2},
  };
  options.partition_events = {{from_seconds(15.0), 1, from_seconds(12.0)}};
  options.enable_scarlett = c.scarlett;
  options.scarlett.epoch = from_seconds(20.0);
  if (c.budget_fraction > 0.0) options.budget_fraction = c.budget_fraction;
  return options;
}

class AllEventKinds : public ::testing::TestWithParam<AllKindsCase> {};

TEST_P(AllEventKinds, PinnedFingerprintAndExportDigests) {
  const AllKindsCase& c = GetParam();
  obs::TraceCollector tracer;
  auto options = all_kinds_options(c);
  options.tracer = &tracer;
  const auto result = run_once(options, standard_wl1(24, 60, 1));

  // Coverage: the run must keep reaching every event kind, or the pin
  // below stops guarding it.
  EXPECT_GT(result.speculative_launched, 0u);
  EXPECT_GT(result.clones_launched, 0u);
  EXPECT_GT(result.partition_episodes, 0u);
  EXPECT_GT(result.link_degrade_episodes, 0u);
  EXPECT_GT(result.degraded_onsets, 0u);
  EXPECT_GT(result.node_failures, 0u);
  EXPECT_GT(result.node_rejoins, 0u);
  EXPECT_GT(result.corrupt_reads, 0u);
  EXPECT_GT(result.rereplicated_blocks, 0u);
  EXPECT_GT(result.stragglers_detected, 0u);
  EXPECT_GT(tracer.series().size(), 0u);
  if (c.scarlett) {
    EXPECT_GT(result.proactive_replication_bytes, 0u);
  }
  if (c.budget_fraction > 0.0) {
    std::map<obs::EventKind, std::size_t> rows;
    for (const auto& e : tracer.events()) ++rows[e.kind];
    EXPECT_GT(rows[obs::EventKind::kReplicaAdopted], 0u);
    EXPECT_GT(rows[obs::EventKind::kReplicaEvicted], 0u);
    EXPECT_GT(rows[obs::EventKind::kReplicaSkipped], 0u);
  }

  std::ostringstream csv;
  obs::write_events_csv(tracer, csv);
  std::ostringstream json;
  obs::write_chrome_trace(tracer, json);
  EXPECT_EQ(hex(metrics::fingerprint(result)), hex(c.fingerprint));
  EXPECT_EQ(hex(fnv1a(csv.str())), hex(c.events_csv)) << "events.csv digest";
  EXPECT_EQ(hex(fnv1a(json.str())), hex(c.chrome_trace))
      << "trace.json digest";
}

INSTANTIATE_TEST_SUITE_P(
    TraceDeterminism, AllEventKinds,
    ::testing::Values(
        // Scarlett's epochs make this the one case that fires every kind.
        AllKindsCase{"FifoVanillaScarlett", SchedulerKind::kFifo,
                     PolicyKind::kVanilla, true, 0.0, 0xa8e676527ef46725ULL,
                     0x8abf2ef9dc23083aULL, 0xf6502c5fbbf14908ULL},
        AllKindsCase{"FairElephantTrap", SchedulerKind::kFair,
                     PolicyKind::kElephantTrap, false, 0.0,
                     0xf9813206f2a0a6faULL, 0xf750a22b6dc3e459ULL,
                     0x6470bf12eb59e932ULL},
        // A quarter of the paper's budget, so the greedy policies evict.
        AllKindsCase{"FifoGreedyLru", SchedulerKind::kFifo,
                     PolicyKind::kGreedyLru, false, 0.05,
                     0xca8f901c41fe485aULL, 0xa8c3473befacaf30ULL,
                     0xe114e4c835b66713ULL},
        AllKindsCase{"FairGreedyLfu", SchedulerKind::kFair,
                     PolicyKind::kGreedyLfu, false, 0.05,
                     0xfd8096d5f85807b9ULL, 0x9e999cd20be857acULL,
                     0xd66d409cb2aa0267ULL}),
    [](const ::testing::TestParamInfo<AllKindsCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dare::cluster
