// Hyperscale-tier guarantees, end to end:
//
//  1. Streamed admission is an *optimization*, not a semantic: running a
//     WorkloadSpec through Cluster::run_stream must produce bit-identical
//     metrics (fingerprint equality) to materializing the same spec and
//     running the job vector through Cluster::run. This is the equivalence
//     oracle that lets bench_scale use streaming at every scale point while
//     the paper cells stay pinned to their fingerprints recorded from
//     materialized runs.
//
//  2. Residency stays O(active jobs): a streamed run releases each
//     JobRuntime at retirement, so the job table's high-water mark tracks
//     the live backlog, not the total job count. If this regresses, the
//     10k-node / 100k-job tier silently reverts to O(all jobs) memory and
//     the BENCH_PR8 RSS numbers become unreachable.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"
#include "workload/workload.h"

namespace dare::cluster {
namespace {

workload::WorkloadOptions small_wl2_options(std::size_t jobs) {
  workload::WorkloadOptions wopts;
  wopts.num_jobs = jobs;
  wopts.seed = 11;
  return wopts;
}

void expect_stream_matches_materialized(SchedulerKind sched, PolicyKind pol) {
  const auto wopts = small_wl2_options(400);
  const auto spec = workload::make_wl2_spec(wopts);

  const auto opts = paper_defaults(net::cct_profile(20), sched, pol, 42);

  Cluster streamed(opts);
  const auto stream_result = streamed.run_stream(spec);

  Cluster materialized(opts);
  const auto mat_result = materialized.run(workload::materialize(spec));

  EXPECT_EQ(metrics::fingerprint(stream_result),
            metrics::fingerprint(mat_result))
      << "streamed admission changed simulation behavior ("
      << scheduler_name(sched) << "/" << policy_name(pol) << ")";
}

TEST(StreamedAdmission, MatchesMaterializedFifoVanilla) {
  expect_stream_matches_materialized(SchedulerKind::kFifo,
                                     PolicyKind::kVanilla);
}

TEST(StreamedAdmission, MatchesMaterializedFifoElephantTrap) {
  expect_stream_matches_materialized(SchedulerKind::kFifo,
                                     PolicyKind::kElephantTrap);
}

TEST(StreamedAdmission, MatchesMaterializedFairElephantTrap) {
  expect_stream_matches_materialized(SchedulerKind::kFair,
                                     PolicyKind::kElephantTrap);
}

std::size_t peak_residency_of_streamed_run(std::size_t jobs) {
  auto wopts = small_wl2_options(jobs);
  // A stable arrival rate (the paper-calibrated default deliberately
  // overloads the cluster, which would make the backlog itself grow with
  // the job count and mask what this test measures).
  wopts.small_interarrival_s = 0.6;
  const auto spec = workload::make_wl2_spec(wopts);
  Cluster sim(paper_defaults(net::cct_profile(20), SchedulerKind::kFair,
                             PolicyKind::kElephantTrap, 42));
  sim.run_stream(spec);
  EXPECT_EQ(sim.job_table().released_jobs(), jobs);
  EXPECT_EQ(sim.job_table().resident_jobs(), 0u);
  return sim.job_table().peak_resident_jobs();
}

TEST(Residency, StreamedRunStaysOActive) {
  // The whole point of the tier: the job table's high-water mark tracks
  // the live backlog, not the submission count. Doubling the jobs of a
  // stable-load run must leave the peak essentially unchanged — a
  // regression to O(all jobs) doubles it instead.
  const std::size_t peak_short = peak_residency_of_streamed_run(600);
  const std::size_t peak_long = peak_residency_of_streamed_run(1200);
  EXPECT_GT(peak_short, 0u);
  EXPECT_LT(peak_long, 300u) << "backlog approaches the total job count";
  EXPECT_LE(peak_long, peak_short + peak_short / 2)
      << "peak residency scales with total jobs, not the active backlog";
}

TEST(Residency, MaterializedRunReleasesToo) {
  // run() shares run_with with run_stream: release-on-retire applies to
  // materialized workloads as well, keeping the two paths identical.
  const std::size_t kJobs = 300;
  const auto wl = workload::make_wl2(small_wl2_options(kJobs));
  Cluster sim(paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, 42));
  sim.run(wl);
  EXPECT_EQ(sim.job_table().released_jobs(), kJobs);
  EXPECT_EQ(sim.job_table().resident_jobs(), 0u);
}

}  // namespace
}  // namespace dare::cluster
