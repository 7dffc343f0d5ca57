// Straggler & degraded-node subsystem tests: persistent degraded nodes and
// heavy-tailed task inflation on a forked RNG stream, progress-rate
// detection in the heartbeat path, budgeted proactive task cloning with
// first-finisher-wins, and graceful degradation of detected-slow nodes.
//
// Also the speculation/cloning attempt-accounting regression suite: a copy
// finishing the same tick as the original must neither double-count the
// completion nor leak a slot (the zero-noise configs below manufacture
// guaranteed same-tick ties).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "obs/trace_collector.h"

namespace dare::cluster {
namespace {

workload::Workload straggler_workload(std::size_t jobs = 100,
                                      std::uint64_t seed = 41) {
  workload::WorkloadOptions opts;
  opts.num_jobs = jobs;
  opts.seed = seed;
  opts.catalog.small_files = 20;
  opts.catalog.large_files = 2;
  opts.catalog.large_min_blocks = 6;
  opts.catalog.large_max_blocks = 10;
  return workload::make_wl1(opts);
}

ClusterOptions base_options(SchedulerKind sched = SchedulerKind::kFifo) {
  return paper_defaults(net::cct_profile(10), sched, PolicyKind::kVanilla);
}

/// Straggler injection tuned so a ~10-node run sees several degrade
/// episodes and a fat tail of inflated tasks.
ClusterOptions injection_options(SchedulerKind sched = SchedulerKind::kFifo) {
  auto opts = base_options(sched);
  opts.stragglers.enabled = true;
  opts.stragglers.degrade_mtbf_s = 40.0;
  opts.stragglers.degrade_duration_s = 30.0;
  opts.stragglers.compute_slowdown = 4.0;
  opts.stragglers.disk_slowdown = 3.0;
  opts.stragglers.tail_prob = 0.15;
  opts.stragglers.tail_alpha = 1.2;
  opts.stragglers.tail_cap = 10.0;
  return opts;
}

/// Construction must reject the named field with a message naming it.
void expect_rejects(void (*mutate)(ClusterOptions&), const char* field) {
  auto opts = base_options();
  opts.stragglers.enabled = true;
  mutate(opts);
  try {
    Cluster cluster(opts);
    FAIL() << "expected invalid_argument for " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message \"" << e.what() << "\" does not name " << field;
  }
}

// --- parameter validation: one test per StragglerParams field -------------

TEST(StragglerValidation, RejectsNonPositiveDegradeMtbf) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.degrade_mtbf_s = 0.0; },
                 "StragglerParams.degrade_mtbf_s");
}

TEST(StragglerValidation, RejectsNonPositiveDegradeDuration) {
  expect_rejects(
      [](ClusterOptions& o) { o.stragglers.degrade_duration_s = -1.0; },
      "StragglerParams.degrade_duration_s");
}

TEST(StragglerValidation, RejectsDeflatingComputeSlowdown) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.compute_slowdown = 0.5; },
                 "StragglerParams.compute_slowdown");
}

TEST(StragglerValidation, RejectsDeflatingDiskSlowdown) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.disk_slowdown = 0.9; },
                 "StragglerParams.disk_slowdown");
}

TEST(StragglerValidation, RejectsOutOfRangeRackCorrelation) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.rack_correlation = 1.5; },
                 "StragglerParams.rack_correlation");
}

TEST(StragglerValidation, RejectsOutOfRangeTailProb) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.tail_prob = -0.1; },
                 "StragglerParams.tail_prob");
}

TEST(StragglerValidation, RejectsNonPositiveTailAlpha) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejects([](ClusterOptions& o) { o.stragglers.tail_alpha = 0.0; },
                 "StragglerParams.tail_alpha");
  auto opts = base_options();
  opts.stragglers.tail_alpha = nan;  // NaN must fail the same check
  EXPECT_THROW(Cluster cluster(opts), std::invalid_argument);
}

TEST(StragglerValidation, RejectsTailCapAtOrBelowOne) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.tail_cap = 1.0; },
                 "StragglerParams.tail_cap");
}

TEST(StragglerValidation, RejectsNonPositiveTailSigma) {
  expect_rejects([](ClusterOptions& o) { o.stragglers.tail_sigma = 0.0; },
                 "StragglerParams.tail_sigma");
}

TEST(StragglerValidation, RejectsMitigationKnobsOutOfRange) {
  auto opts = base_options();
  opts.clone_budget_fraction = 1.5;
  EXPECT_THROW(Cluster c1(opts), std::invalid_argument);
  opts = base_options();
  opts.straggler_detect_ratio = 0.5;
  EXPECT_THROW(Cluster c2(opts), std::invalid_argument);
  opts = base_options();
  opts.straggler_backoff = 0;
  EXPECT_THROW(Cluster c3(opts), std::invalid_argument);
}

// --- injection behavior ---------------------------------------------------

TEST(Stragglers, DisabledRunHasZeroStragglerCounters) {
  const auto result = run_once(base_options(), straggler_workload());
  EXPECT_EQ(result.degraded_onsets, 0u);
  EXPECT_EQ(result.degraded_recoveries, 0u);
  EXPECT_EQ(result.tail_inflations, 0u);
  EXPECT_EQ(result.stragglers_detected, 0u);
  EXPECT_EQ(result.clones_launched, 0u);
}

TEST(Stragglers, EnabledInjectsDegradationAndTails) {
  const auto wl = straggler_workload();
  const auto result = run_once(injection_options(), wl);
  EXPECT_GT(result.degraded_onsets, 0u);
  EXPECT_GT(result.tail_inflations, 0u);
  // Recoveries trail onsets by at most the episodes still open at run end.
  EXPECT_LE(result.degraded_recoveries, result.degraded_onsets);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_GT(jm.completion, jm.arrival);
}

TEST(Stragglers, DegradationSlowsTheRun) {
  const auto wl = straggler_workload();
  const auto quiet = run_once(base_options(), wl);
  const auto degraded = run_once(injection_options(), wl);
  EXPECT_GT(degraded.gmtt_s, quiet.gmtt_s);
}

TEST(Stragglers, RackCorrelatedOnsetsCoDegradePeers) {
  auto opts = injection_options();
  opts.stragglers.rack_correlation = 1.0;
  obs::TraceCollector tracer;
  opts.tracer = &tracer;
  Cluster cluster(opts);
  const auto result = cluster.run(straggler_workload(60));
  EXPECT_GT(result.degraded_onsets, 0u);
  std::size_t correlated = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == obs::EventKind::kNodeDegraded && ev.detail == 1) {
      ++correlated;
    }
  }
  EXPECT_GT(correlated, 0u);
}

TEST(Stragglers, LognormalTailVariantRuns) {
  auto opts = injection_options();
  opts.stragglers.tail_lognormal = true;
  opts.stragglers.tail_sigma = 1.0;
  const auto wl = straggler_workload(60);
  const auto result = run_once(opts, wl);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  EXPECT_GT(result.tail_inflations, 0u);
}

// --- detection & graceful degradation -------------------------------------

ClusterOptions detection_options(SchedulerKind sched = SchedulerKind::kFifo) {
  auto opts = injection_options(sched);
  // Long, severe episodes make degraded nodes stand out of the EWMA fast.
  opts.stragglers.degrade_duration_s = 120.0;
  opts.stragglers.compute_slowdown = 6.0;
  opts.stragglers.disk_slowdown = 4.0;
  opts.enable_straggler_detection = true;
  opts.straggler_detect_min_samples = 2;
  opts.straggler_detect_ratio = 1.6;
  opts.straggler_backoff = from_seconds(20.0);
  return opts;
}

TEST(StragglerDetection, FlagsSlowNodesFromObservedDurationsOnly) {
  obs::TraceCollector tracer;
  auto opts = detection_options();
  opts.tracer = &tracer;
  Cluster cluster(opts);
  const auto wl = straggler_workload(150);
  const auto result = cluster.run(wl);
  EXPECT_GT(result.stragglers_detected, 0u);
  for (const auto& ev : tracer.events()) {
    if (ev.kind == obs::EventKind::kStragglerDetected) {
      // The recorded EWMA ratio must clear the configured threshold.
      EXPECT_GE(ev.value, opts.straggler_detect_ratio);
    }
  }
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
}

TEST(StragglerDetection, BackoffExpiryReadmitsNodes) {
  auto opts = detection_options();
  // Short episodes + short backoff: a degraded node recovers while
  // sidelined and earns its way back.
  opts.stragglers.degrade_duration_s = 25.0;
  opts.straggler_backoff = from_seconds(10.0);
  const auto result = run_once(opts, straggler_workload(150));
  EXPECT_GT(result.stragglers_detected, 0u);
  EXPECT_GT(result.straggler_readmissions, 0u);
  // Re-admissions only ever follow detections.
  EXPECT_LE(result.straggler_readmissions, result.stragglers_detected);
}

TEST(StragglerDetection, DisabledMeansNoDetections) {
  auto opts = injection_options();
  opts.enable_straggler_detection = false;
  const auto result = run_once(opts, straggler_workload());
  EXPECT_EQ(result.stragglers_detected, 0u);
  EXPECT_EQ(result.straggler_readmissions, 0u);
}

// --- proactive task cloning -----------------------------------------------

ClusterOptions cloning_options(SchedulerKind sched = SchedulerKind::kFifo) {
  auto opts = injection_options(sched);
  opts.enable_task_cloning = true;
  opts.clone_budget_fraction = 0.2;
  return opts;
}

TEST(Cloning, DisabledMeansNoClones) {
  const auto result = run_once(injection_options(), straggler_workload());
  EXPECT_EQ(result.clones_launched, 0u);
  EXPECT_EQ(result.clone_wins, 0u);
  EXPECT_EQ(result.clones_killed, 0u);
}

TEST(Cloning, EveryCloneTerminallyWinsOrIsKilled) {
  const auto wl = straggler_workload(150);
  const auto result = run_once(cloning_options(), wl);
  EXPECT_GT(result.clones_launched, 0u);
  EXPECT_EQ(result.clone_wins + result.clones_killed, result.clones_launched);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
}

TEST(Cloning, AccountingBalancesUnderChurn) {
  auto opts = cloning_options(SchedulerKind::kFair);
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 80.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 0.2;
  opts.faults.task_failure_prob = 0.01;
  opts.faults.min_live_workers = 4;
  opts.rereplication_interval = from_seconds(2.0);
  const auto wl = straggler_workload(150);
  const auto result = run_once(opts, wl);
  // Node deaths, zombie attempts, and job kills must all return the clone
  // budget: the ledger still balances exactly.
  EXPECT_EQ(result.clone_wins + result.clones_killed, result.clones_launched);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
}

TEST(Cloning, WorksUnderBothSchedulers) {
  const auto wl = straggler_workload(120);
  for (const auto sched : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
    const auto result = run_once(cloning_options(sched), wl);
    EXPECT_GT(result.clones_launched, 0u) << scheduler_name(sched);
    EXPECT_EQ(result.clone_wins + result.clones_killed,
              result.clones_launched)
        << scheduler_name(sched);
    EXPECT_EQ(result.jobs.size(), wl.jobs.size()) << scheduler_name(sched);
  }
}

TEST(Cloning, JobSizeFilterOnlyClonesSmallJobs) {
  // With clone_job_max_maps = 1, every clone must belong to a 1-map job.
  // The trace records each job's map count at submission (kJobSubmitted
  // detail), so the filter is auditable from the event stream alone.
  obs::TraceCollector tracer;
  auto opts = cloning_options();
  opts.clone_job_max_maps = 1;
  opts.tracer = &tracer;
  Cluster cluster(opts);
  cluster.run(straggler_workload(120));
  std::map<JobId, std::int64_t> maps_of;
  std::size_t clones = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == obs::EventKind::kJobSubmitted) {
      maps_of[ev.job] = ev.detail;
    } else if (ev.kind == obs::EventKind::kCloneLaunched) {
      ++clones;
      EXPECT_EQ(maps_of.at(ev.job), 1) << "clone in a multi-map job";
    }
  }
  EXPECT_GT(clones, 0u);
}

TEST(Cloning, MitigatesHeavyTailedStragglersUnderSlack) {
  // The headline claim, in miniature (the full sweep lives in
  // bench_cloning): when the cluster has slack, hedging launches with
  // budgeted clones clips the heavy tail and shortens the geometric-mean
  // turnaround. (Under saturation clones steal slots from queued work —
  // the sweep quantifies that regime too.)
  workload::WorkloadOptions wopts;
  wopts.num_jobs = 120;
  wopts.seed = 41;
  wopts.catalog.small_files = 20;
  wopts.catalog.large_files = 2;
  wopts.small_interarrival_s *= 4.0;  // sparse arrivals -> idle slots
  wopts.burst_interarrival_s *= 4.0;
  const auto wl = workload::make_wl1(wopts);

  auto slow = base_options();
  slow.stragglers.enabled = true;
  slow.stragglers.degrade_mtbf_s = 200.0;
  slow.stragglers.degrade_duration_s = 40.0;
  slow.stragglers.tail_prob = 0.3;
  slow.stragglers.tail_alpha = 1.1;
  slow.stragglers.tail_cap = 10.0;
  auto hedged = slow;
  hedged.enable_task_cloning = true;
  hedged.clone_budget_fraction = 0.5;
  const auto r_slow = run_once(slow, wl);
  const auto r_hedged = run_once(hedged, wl);
  EXPECT_GT(r_hedged.clones_launched, 0u);
  EXPECT_LT(r_hedged.gmtt_s, r_slow.gmtt_s);
}

TEST(Cloning, DeterministicAcrossRuns) {
  auto opts = cloning_options(SchedulerKind::kFair);
  opts.enable_straggler_detection = true;
  const auto wl = straggler_workload(100);
  const auto r1 = run_once(opts, wl);
  const auto r2 = run_once(opts, wl);
  EXPECT_EQ(r1.clones_launched, r2.clones_launched);
  EXPECT_EQ(r1.clone_wins, r2.clone_wins);
  EXPECT_EQ(r1.stragglers_detected, r2.stragglers_detected);
  EXPECT_DOUBLE_EQ(r1.gmtt_s, r2.gmtt_s);
  EXPECT_DOUBLE_EQ(r1.clone_wasted_work_s, r2.clone_wasted_work_s);
}

// --- same-tick tie regression (speculation/cloning attempt accounting) ----

/// Zero-noise physics: deterministic disk (no jitter, no bursts), no
/// stragglers, homogeneous nodes. Two block-local attempts of the same task
/// then have *identical* durations, so a clone launched in the same event
/// as its original finishes in the same tick — a guaranteed structural tie.
ClusterOptions zero_noise_cloning() {
  auto opts = base_options();
  opts.profile.disk.stddev = 0.0;
  opts.profile.disk.burst_probability = 0.0;
  opts.enable_task_cloning = true;
  opts.clone_budget_fraction = 1.0;
  return opts;
}

TEST(SameTickTie, CloneFinishingWithOriginalNeitherDoubleCountsNorLeaks) {
  obs::TraceCollector tracer;
  auto opts = zero_noise_cloning();
  opts.tracer = &tracer;
  Cluster cluster(opts);
  const auto wl = straggler_workload(80);
  const auto result = cluster.run(wl);

  // The run must actually exercise the tie: at least one clone was killed
  // in the very tick its original finished.
  std::size_t ties = 0;
  for (const auto& kill : tracer.events()) {
    if (kill.kind != obs::EventKind::kCloneKilled) continue;
    for (const auto& fin : tracer.events()) {
      if (fin.kind == obs::EventKind::kMapFinished && fin.t == kill.t &&
          fin.job == kill.job && fin.task == kill.task) {
        ++ties;
        break;
      }
    }
  }
  EXPECT_GT(ties, 0u) << "zero-noise run produced no same-tick ties";

  // No double-count: every job completed exactly its own tasks.
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_FALSE(jm.failed);
  EXPECT_EQ(result.clone_wins + result.clones_killed, result.clones_launched);
  // No slot leak: Cluster::validate() (invariant builds) checks every live
  // node has all slots back once the last job finishes; rerunning the same
  // config must also reproduce identical results (a leaked slot would warp
  // the second half of the schedule).
  const auto again = run_once(zero_noise_cloning(), wl);
  EXPECT_DOUBLE_EQ(again.gmtt_s, result.gmtt_s);
}

TEST(SameTickTie, SpeculativeAccountingSurvivesZeroNoiseRace) {
  // Speculation flavor of the same audit: zero-noise disks plus statically
  // slow nodes make backup-vs-original finishes land arbitrarily close
  // (including same-tick when the slowdown, threshold, and tick interval
  // line up). Whatever the tie count, completions and slots must balance.
  auto opts = base_options();
  opts.profile.disk.stddev = 0.0;
  opts.profile.disk.burst_probability = 0.0;
  opts.profile.straggler_fraction = 0.3;
  opts.profile.straggler_slowdown = 2.0;
  opts.enable_speculation = true;
  const auto wl = straggler_workload(120);
  const auto result = run_once(opts, wl);
  EXPECT_GT(result.speculative_launched, 0u);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_FALSE(jm.failed);
  // Wins plus kills never exceed launches (a backup whose original wins is
  // killed; a backup that wins kills the original, which was not a backup).
  EXPECT_LE(result.speculative_wins + result.speculative_killed,
            result.speculative_launched + result.speculative_killed);
  const auto again = run_once(opts, wl);
  EXPECT_DOUBLE_EQ(again.gmtt_s, result.gmtt_s);
  EXPECT_EQ(again.speculative_wins, result.speculative_wins);
}

// --- full-stack smoke ------------------------------------------------------

TEST(Stragglers, FullMitigationStackCompletesEverything) {
  auto opts = detection_options(SchedulerKind::kFair);
  opts.policy = PolicyKind::kElephantTrap;
  opts.enable_task_cloning = true;
  opts.clone_budget_fraction = 0.15;
  opts.enable_speculation = true;
  const auto wl = straggler_workload(150);
  const auto result = run_once(opts, wl);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_GT(jm.completion, jm.arrival);
  EXPECT_EQ(result.clone_wins + result.clones_killed, result.clones_launched);
  EXPECT_GT(result.dynamic_replicas_created, 0u);
}

}  // namespace
}  // namespace dare::cluster
