// Tests for the experiment harness: option builders, config overrides and
// the standard workloads. The sweep engine is tested in test_farm.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cluster/experiment.h"

namespace dare::cluster {
namespace {

TEST(PaperDefaults, MatchSectionVParameters) {
  const auto opts = paper_defaults(net::cct_profile(20), SchedulerKind::kFair,
                                   PolicyKind::kElephantTrap, 7);
  EXPECT_DOUBLE_EQ(opts.trap.p, 0.3);
  EXPECT_EQ(opts.trap.threshold, 1u);
  EXPECT_DOUBLE_EQ(opts.budget_fraction, 0.2);
  EXPECT_EQ(opts.scheduler, SchedulerKind::kFair);
  EXPECT_EQ(opts.policy, PolicyKind::kElephantTrap);
  EXPECT_EQ(opts.seed, 7u);
}

TEST(ParseNames, SchedulerAndPolicySpellings) {
  EXPECT_EQ(parse_scheduler("fifo"), SchedulerKind::kFifo);
  EXPECT_EQ(parse_scheduler("Fair"), SchedulerKind::kFair);
  EXPECT_THROW(parse_scheduler("lifo"), std::invalid_argument);
  EXPECT_EQ(parse_policy("vanilla"), PolicyKind::kVanilla);
  EXPECT_EQ(parse_policy("lru"), PolicyKind::kGreedyLru);
  EXPECT_EQ(parse_policy("greedy-lfu"), PolicyKind::kGreedyLfu);
  EXPECT_EQ(parse_policy("et"), PolicyKind::kElephantTrap);
  EXPECT_EQ(parse_policy("elephant-trap"), PolicyKind::kElephantTrap);
  EXPECT_THROW(parse_policy("arc"), std::invalid_argument);
}

TEST(ApplyOverrides, KnownKeysApplied) {
  const auto cfg = Config::from_string(
      "profile = ec2\n"
      "nodes = 40\n"
      "scheduler = fair\n"
      "policy = lru\n"
      "p = 0.7\n"
      "threshold = 3\n"
      "budget = 0.5\n"
      "map_slots = 4\n"
      "reduce_slots = 2\n"
      "heartbeat_s = 1.5\n"
      "fair_delay_ms = 250\n"
      "seed = 99\n");
  const auto opts = apply_overrides(
      paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                     PolicyKind::kVanilla),
      cfg);
  EXPECT_EQ(opts.profile.name, "ec2");
  EXPECT_EQ(opts.profile.topology.nodes, 40u);
  EXPECT_EQ(opts.scheduler, SchedulerKind::kFair);
  EXPECT_EQ(opts.policy, PolicyKind::kGreedyLru);
  EXPECT_DOUBLE_EQ(opts.trap.p, 0.7);
  EXPECT_EQ(opts.trap.threshold, 3u);
  EXPECT_DOUBLE_EQ(opts.budget_fraction, 0.5);
  EXPECT_EQ(opts.map_slots_per_node, 4u);
  EXPECT_EQ(opts.reduce_slots_per_node, 2u);
  EXPECT_EQ(opts.heartbeat_interval, from_seconds(1.5));
  EXPECT_EQ(opts.fair_delay, from_millis(250));
  EXPECT_EQ(opts.seed, 99u);
}

TEST(ApplyOverrides, UnknownKeysIgnoredDefaultsKept) {
  const auto cfg = Config::from_string("jobs = 500\nfoo = bar\n");
  const auto base = paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                                   PolicyKind::kElephantTrap);
  const auto opts = apply_overrides(base, cfg);
  EXPECT_EQ(opts.profile.topology.nodes, base.profile.topology.nodes);
  EXPECT_DOUBLE_EQ(opts.trap.p, base.trap.p);
  EXPECT_EQ(opts.scheduler, base.scheduler);
}

TEST(ApplyOverrides, NodesAloneKeepsProfileKind) {
  const auto cfg = Config::from_string("nodes = 50\n");
  const auto opts = apply_overrides(
      paper_defaults(net::ec2_profile(20), SchedulerKind::kFifo,
                     PolicyKind::kVanilla),
      cfg);
  EXPECT_EQ(opts.profile.name, "ec2");
  EXPECT_EQ(opts.profile.topology.nodes, 50u);
}

TEST(ApplyOverrides, BadValuesThrow) {
  const auto base = paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                                   PolicyKind::kVanilla);
  EXPECT_THROW(
      apply_overrides(base, Config::from_string("profile = gcp\n")),
      std::invalid_argument);
  EXPECT_THROW(
      apply_overrides(base, Config::from_string("policy = arc\n")),
      std::invalid_argument);
  EXPECT_THROW(apply_overrides(base, Config::from_string("p = high\n")),
               std::invalid_argument);
}

class NegativeCountKnob : public ::testing::TestWithParam<const char*> {};

TEST_P(NegativeCountKnob, RejectedNamingTheKey) {
  // Unchecked, a negative count wraps around in the cast to size_t/uint32_t
  // (nodes=-1 dies in vector growth, map_slots=-1 runs with SIZE_MAX slots).
  const auto base = paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                                   PolicyKind::kVanilla);
  const std::string key = GetParam();
  try {
    apply_overrides(base, Config::from_string(key + " = -1\n"));
    FAIL() << "expected std::invalid_argument naming " << key;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << "message does not name the key: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountKnobs, NegativeCountKnob,
    ::testing::Values("nodes", "threshold", "map_slots", "reduce_slots",
                      "min_live_workers", "detect_min_samples",
                      "repairs_per_uplink", "clone_max_maps", "detect_missed",
                      "max_attempts", "blacklist_threshold", "seed"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(ApplyOverrides, CountBeyondItsTypeRejected) {
  const auto base = paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                                   PolicyKind::kElephantTrap);
  // trap.threshold is 32-bit: 2^32 would wrap to 0.
  EXPECT_THROW(
      apply_overrides(base, Config::from_string("threshold = 4294967296\n")),
      std::invalid_argument);
  EXPECT_EQ(apply_overrides(base, Config::from_string("threshold = 0\n"))
                .trap.threshold,
            0u);
}

TEST(OverrideKeysFor, OwnKeysPlusOverridesMinusOverwritten) {
  const auto keys = override_keys_for({"jobs"}, {"faults", "policy"});
  const auto has = [&keys](const std::string& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  EXPECT_TRUE(has("jobs"));
  EXPECT_TRUE(has("mtbf_s"));
  EXPECT_FALSE(has("faults"));
  EXPECT_FALSE(has("policy"));
  EXPECT_EQ(keys.size(), override_keys().size() + 1 - 2);
}

TEST(StandardWorkloads, ScaleArrivalsWithClusterSize) {
  const auto small = standard_wl1(12, 100, 3);
  const auto large = standard_wl1(100, 100, 3);
  // Same job count; the larger cluster receives them faster.
  ASSERT_EQ(small.jobs.size(), large.jobs.size());
  EXPECT_GT(small.jobs.back().arrival, large.jobs.back().arrival);
}

TEST(StandardWorkloads, DegenerateClusterSizesClampToOneWorker) {
  // total_nodes counts the master: 1- and 0-node "clusters" have no
  // workers. The unguarded 19/(n-1) arrival scaling used to yield inf
  // interarrivals at n == 1 (and size_t wraparound at n == 0); all three
  // degenerate sizes must now behave like the single-worker cluster.
  const auto two = standard_wl1(2, 8, 3);
  const auto one = standard_wl1(1, 8, 3);
  const auto zero = standard_wl1(0, 8, 3);
  ASSERT_EQ(one.jobs.size(), two.jobs.size());
  ASSERT_EQ(zero.jobs.size(), two.jobs.size());
  for (std::size_t i = 0; i < two.jobs.size(); ++i) {
    EXPECT_EQ(one.jobs[i].arrival, two.jobs[i].arrival);
    EXPECT_EQ(zero.jobs[i].arrival, two.jobs[i].arrival);
    EXPECT_GE(one.jobs[i].arrival, 0);
    EXPECT_LT(one.jobs[i].arrival, kTimeNever);
  }
  const auto one_wl2 = standard_wl2(1, 8, 3);
  const auto two_wl2 = standard_wl2(2, 8, 3);
  ASSERT_EQ(one_wl2.jobs.size(), two_wl2.jobs.size());
  for (std::size_t i = 0; i < two_wl2.jobs.size(); ++i) {
    EXPECT_EQ(one_wl2.jobs[i].arrival, two_wl2.jobs[i].arrival);
  }
}

}  // namespace
}  // namespace dare::cluster
