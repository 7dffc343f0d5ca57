// Tests for the bench sweep helper in bench_common.h: run_cells runs one
// simulation per cell on the sweep engine, in cell order, and wires the
// progress=1 meter. (The command-line front end every bench runs through
// is tested in test_config.)
#include "bench_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dare::bench {
namespace {

std::vector<cluster::ClusterOptions> seed_cells(std::size_t n) {
  std::vector<cluster::ClusterOptions> cells;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    cells.push_back(cluster::paper_defaults(
        net::cct_profile(8), cluster::SchedulerKind::kFifo,
        cluster::PolicyKind::kElephantTrap, seed));
  }
  return cells;
}

TEST(RunCells, MatchesRunOnceInCellOrder) {
  const auto wl = cluster::standard_wl1(8, 30, 3);
  const auto cells = seed_cells(3);
  const auto results = run_cells(Config(), cells, wl);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(metrics::fingerprint(results[i]),
              metrics::fingerprint(cluster::run_once(cells[i], wl)));
  }
}

TEST(RunCells, ProgressKeyWiresTheMeter) {
  EXPECT_FALSE(progress_meter(Config()));
  EXPECT_FALSE(progress_meter(Config::from_string("progress = 0\n")));
  const auto wl = cluster::standard_wl1(8, 20, 3);
  testing::internal::CaptureStderr();
  run_cells(Config::from_string("progress = 1\n"), seed_cells(2), wl);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[sweep 2/2]"), std::string::npos) << err;
}

}  // namespace
}  // namespace dare::bench
