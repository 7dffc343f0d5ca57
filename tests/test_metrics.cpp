#include "metrics/run_metrics.h"

#include <gtest/gtest.h>

namespace dare::metrics {
namespace {

JobMetrics job(JobId id, double arrival_s, double completion_s,
               std::size_t maps, std::size_t local,
               double dedicated_s) {
  JobMetrics jm;
  jm.id = id;
  jm.arrival = from_seconds(arrival_s);
  jm.completion = from_seconds(completion_s);
  jm.maps = maps;
  jm.local_maps = local;
  jm.dedicated_runtime_s = dedicated_s;
  return jm;
}

TEST(JobMetrics, DerivedQuantities) {
  const auto jm = job(1, 10.0, 30.0, 4, 3, 10.0);
  EXPECT_DOUBLE_EQ(jm.turnaround_s(), 20.0);
  EXPECT_DOUBLE_EQ(jm.slowdown(), 2.0);
  EXPECT_DOUBLE_EQ(jm.locality(), 0.75);
}

TEST(JobMetrics, ZeroGuards) {
  JobMetrics jm;
  EXPECT_EQ(jm.locality(), 0.0);
  EXPECT_EQ(jm.slowdown(), 0.0);
}

TEST(Finalize, AggregatesAcrossJobs) {
  RunResult result;
  result.jobs.push_back(job(1, 0.0, 10.0, 2, 2, 5.0));   // TT 10, sd 2
  result.jobs.push_back(job(2, 0.0, 40.0, 2, 0, 10.0));  // TT 40, sd 4
  result.dynamic_replicas_created = 6;
  finalize(result, {1.0, 2.0, 3.0});

  EXPECT_DOUBLE_EQ(result.locality, 0.5);  // 2 local of 4 maps
  EXPECT_NEAR(result.gmtt_s, 20.0, 1e-9);  // sqrt(10*40)
  EXPECT_DOUBLE_EQ(result.mean_slowdown, 3.0);
  EXPECT_DOUBLE_EQ(result.mean_map_time_s, 2.0);
  EXPECT_DOUBLE_EQ(result.blocks_created_per_job, 3.0);
}

TEST(Finalize, CountsJobsSkippedFromGmtt) {
  // A job whose completion equals its arrival has zero turnaround: it
  // cannot enter the log-domain geometric mean and used to vanish without
  // a trace, silently inflating GMTT. The skip count must surface it.
  RunResult result;
  result.jobs.push_back(job(1, 5.0, 5.0, 1, 1, 1.0));   // TT 0 -> skipped
  result.jobs.push_back(job(2, 0.0, 10.0, 1, 1, 5.0));  // TT 10
  finalize(result, {1.0});
  EXPECT_EQ(result.gmtt_skipped_jobs, 1u);
  EXPECT_NEAR(result.gmtt_s, 10.0, 1e-9);  // only job 2 enters the mean

  RunResult clean;
  clean.jobs.push_back(job(1, 0.0, 10.0, 1, 1, 5.0));
  finalize(clean, {1.0});
  EXPECT_EQ(clean.gmtt_skipped_jobs, 0u);
}

TEST(Fingerprint, SkippedJobsChangeDigestOnlyWhenPresent) {
  // Digest-compatibility contract: runs with no skipped jobs keep the
  // digest they had before the field existed (the paper cells committed in
  // BENCH_PR8.json), while a nonzero skip count must be visible in the
  // digest.
  RunResult a;
  a.jobs.push_back(job(1, 0.0, 10.0, 1, 1, 5.0));
  finalize(a, {1.0});
  ASSERT_EQ(a.gmtt_skipped_jobs, 0u);
  const auto base = fingerprint(a);

  RunResult b = a;
  b.gmtt_skipped_jobs = 2;  // forced: same metrics, nonzero skip count
  EXPECT_NE(fingerprint(b), base);
  b.gmtt_skipped_jobs = 0;
  EXPECT_EQ(fingerprint(b), base);
}

TEST(Fingerprint, IgnoresOfferWorkCounters) {
  // The work counters measure how the simulator computed a run, not what
  // it computed: an optimization that halves them keeps every digest.
  RunResult a;
  a.jobs.push_back(job(1, 0.0, 10.0, 1, 1, 5.0));
  finalize(a, {1.0});
  const auto base = fingerprint(a);
  RunResult b = a;
  b.work.sweeps = 7;
  b.work.node_visits = 11;
  b.work.select_map_calls = 13;
  b.work.job_probes = 17;
  b.work.memo_answers = 19;
  b.work.select_reduce_calls = 37;
  b.work.candidate_inserts = 41;
  b.work.candidate_erases = 43;
  b.work.candidate_allocations = 47;
  b.work.watcher_visits = 53;
  b.work.events[0] = 23;
  b.work.events[1] = 29;
  b.work.events[b.work.events.size() - 1] = 31;
  EXPECT_EQ(fingerprint(b), base);
}

TEST(Finalize, EmptyRunIsSafe) {
  RunResult result;
  finalize(result, std::vector<double>{});
  EXPECT_EQ(result.locality, 0.0);
  EXPECT_EQ(result.gmtt_s, 0.0);
  EXPECT_EQ(result.mean_slowdown, 0.0);
  EXPECT_EQ(result.blocks_created_per_job, 0.0);
}

TEST(PopularityIndex, WeightsSizeByPopularity) {
  const double pi =
      popularity_index({100, 200}, {2.0, 0.5});
  EXPECT_DOUBLE_EQ(pi, 100 * 2.0 + 200 * 0.5);
}

TEST(PopularityIndex, SizeMismatchThrows) {
  EXPECT_THROW(popularity_index({100}, {1.0, 2.0}), std::invalid_argument);
}

TEST(PopularityIndex, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(popularity_index({}, {}), 0.0);
}

}  // namespace
}  // namespace dare::metrics
