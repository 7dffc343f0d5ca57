// Tests for the Config store and the driver front end (run_driver) that
// every bench, example and tool runs through.
#include "common/config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dare {
namespace {

TEST(Config, ParsesKeyValueLines) {
  const auto cfg = Config::from_string(
      "budget = 0.2\n"
      "policy = elephant-trap\n"
      "threshold=1\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("budget", 0.0), 0.2);
  EXPECT_EQ(cfg.get_string("policy", ""), "elephant-trap");
  EXPECT_EQ(cfg.get_int("threshold", 0), 1);
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  const auto cfg = Config::from_string(
      "# a comment\n"
      "\n"
      "p = 0.3  # inline comment\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("p", 0.0), 0.3);
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(Config, MissingKeyYieldsFallback) {
  const Config cfg;
  EXPECT_EQ(cfg.get_string("x", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cfg.get_int("x", 7), 7);
  EXPECT_TRUE(cfg.get_bool("x", true));
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::from_string("novalue\n"), std::invalid_argument);
}

TEST(Config, BadTypedValueThrows) {
  auto cfg = Config::from_string("p = abc\nn = 1.5\nb = maybe\n");
  EXPECT_THROW(cfg.get_double("p", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, NonFiniteDoublesRejected) {
  // std::stod happily parses every spelling below, but a NaN or infinite
  // knob silently corrupts downstream arithmetic (e.g. arrival scaling) —
  // get_double must reject them with the offending key in the message.
  auto cfg = Config::from_string(
      "a = nan\nb = inf\nc = -inf\nd = INF\ne = NaN\nf = infinity\n");
  for (const auto& key : cfg.keys()) {
    try {
      cfg.get_double(key, 0.0);
      FAIL() << "key '" << key << "' should have thrown";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << "message should name the key: " << e.what();
    }
  }
}

TEST(Config, FiniteDoubleSpellingsStillParse) {
  const auto cfg = Config::from_string(
      "a = 1e308\nb = -0.0\nc = 2.5e-10\nd = 42\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("a", 0.0), 1e308);
  EXPECT_DOUBLE_EQ(cfg.get_double("b", 1.0), -0.0);
  EXPECT_DOUBLE_EQ(cfg.get_double("c", 0.0), 2.5e-10);
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 0.0), 42.0);
}

TEST(Config, BooleanSpellings) {
  const auto cfg = Config::from_string(
      "a = true\nb = FALSE\nc = 1\nd = off\ne = Yes\n");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_TRUE(cfg.get_bool("e", false));
}

TEST(Config, FromArgsSeparatesPositional) {
  std::vector<std::string> positional;
  const auto cfg = Config::from_args({"run", "p=0.3", "wl1", "budget=0.5"},
                                     &positional);
  EXPECT_DOUBLE_EQ(cfg.get_double("p", 0.0), 0.3);
  EXPECT_DOUBLE_EQ(cfg.get_double("budget", 0.0), 0.5);
  ASSERT_EQ(positional.size(), 2u);
  EXPECT_EQ(positional[0], "run");
  EXPECT_EQ(positional[1], "wl1");
}

TEST(Config, MergeOverrides) {
  auto base = Config::from_string("a = 1\nb = 2\n");
  const auto over = Config::from_string("b = 3\nc = 4\n");
  base.merge(over);
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

TEST(Config, KeysSorted) {
  const auto cfg = Config::from_string("zeta = 1\nalpha = 2\n");
  const auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "zeta");
}

TEST(Config, EmptyKeyRejected) {
  Config cfg;
  EXPECT_THROW(cfg.set("", "v"), std::invalid_argument);
}

TEST(Config, TrailingCharactersRejected) {
  auto cfg = Config::from_string("p = 0.5x\n");
  EXPECT_THROW(cfg.get_double("p", 0.0), std::invalid_argument);
}

TEST(Config, FromFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dare_config_test.conf";
  {
    std::ofstream out(path);
    out << "# cluster config\npolicy = elephant-trap\np = 0.3\n";
  }
  const auto cfg = Config::from_file(path);
  EXPECT_EQ(cfg.get_string("policy", ""), "elephant-trap");
  EXPECT_DOUBLE_EQ(cfg.get_double("p", 0.0), 0.3);
  std::remove(path.c_str());
}

TEST(Config, FromFileMissingThrows) {
  EXPECT_THROW(Config::from_file("/nonexistent/dare.conf"),
               std::runtime_error);
}

TEST(Config, GetCountRejectsNegativeAndOutOfRange) {
  const auto cfg =
      Config::from_string("ok = 7\nneg = -1\nbig = 4294967296\n");
  EXPECT_EQ(cfg.get_count<std::size_t>("ok", 0), 7u);
  EXPECT_EQ(cfg.get_count<std::size_t>("absent", 3), 3u);
  EXPECT_EQ(cfg.get_count<std::uint64_t>("big", 0), 4294967296u);
  // -1 would wrap to SIZE_MAX in a cast; 2^32 would wrap to 0 in a
  // uint32_t. Both are rejected, naming the key.
  for (const std::string key : {"neg", "big"}) {
    try {
      (void)cfg.get_count<std::uint32_t>(key, 0);
      ADD_FAILURE() << "expected std::invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos);
    }
  }
  EXPECT_THROW((void)cfg.get_count<std::size_t>("neg", 0),
               std::invalid_argument);
  EXPECT_THROW((void)Config::from_string("n = x\n").get_count<int>("n", 0),
               std::invalid_argument);
}

/// Run `args` through run_driver; `seen` receives the Config the body got.
int drive(std::vector<std::string> args, const DriverArgs& spec,
          Config* seen = nullptr, int status = 0) {
  std::string program = "driver";
  std::vector<char*> argv = {program.data()};
  for (auto& arg : args) argv.push_back(arg.data());
  return run_driver(static_cast<int>(argv.size()), argv.data(), spec,
                    [&](const Config& cfg) {
                      if (seen != nullptr) *seen = cfg;
                      return status;
                    });
}

TEST(RunDriver, AcceptsDeclaredKeysAndPassesTheBodyStatus) {
  Config seen;
  EXPECT_EQ(drive({"jobs=100", "seed=3"}, {{"jobs", "seed"}}, &seen), 0);
  EXPECT_EQ(seen.get_int("jobs", 0), 100);
  EXPECT_EQ(seen.get_int("seed", 0), 3);
  EXPECT_EQ(drive({}, {{"jobs"}}, nullptr, 7), 7);
}

TEST(RunDriver, RejectsUndeclaredKeysWithUsage) {
  // Each binary accepts exactly the keys it reads: a typo, or a key some
  // other binary reads, exits 1 without running the body.
  bool ran = false;
  std::string program = "bench_x";
  std::string typo = "nodse=8";
  std::string jobs = "jobs=10";
  std::vector<char*> argv = {program.data(), jobs.data(), typo.data()};
  testing::internal::CaptureStderr();
  const int status = run_driver(3, argv.data(), {{"nodes", "jobs"}},
                                [&ran](const Config&) {
                                  ran = true;
                                  return 0;
                                });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, 1);
  EXPECT_FALSE(ran);
  EXPECT_NE(err.find("error: unrecognized argument(s): nodse=..."),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("usage: bench_x [key=value ...]"), std::string::npos)
      << err;
  EXPECT_NE(err.find("accepted keys: jobs nodes"), std::string::npos) << err;
}

TEST(RunDriver, RejectsStrayPositionals) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(drive({"stray", "jobs=1"}, {{"jobs"}}), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unrecognized argument(s): stray"), std::string::npos)
      << err;
}

TEST(RunDriver, StoresDeclaredPositionalsByName) {
  const DriverArgs spec{.keys = {"count"}, .positionals = {"input", "output"}};
  Config seen;
  EXPECT_EQ(drive({"in.swim", "count=5", "out.trace"}, spec, &seen), 0);
  EXPECT_EQ(seen.get_string("input", ""), "in.swim");
  EXPECT_EQ(seen.get_string("output", ""), "out.trace");
  EXPECT_EQ(seen.get_int("count", 0), 5);

  testing::internal::CaptureStderr();
  EXPECT_EQ(drive({"in.swim"}, spec), 1);
  // A positional's name is not a key.
  EXPECT_EQ(drive({"a", "b", "input=c"}, spec), 1);
  EXPECT_EQ(drive({"a", "b", "c"}, spec), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("missing argument(s): <output>"), std::string::npos)
      << err;
  EXPECT_NE(err.find("usage: driver <input> <output> [key=value ...]"),
            std::string::npos)
      << err;
}

TEST(RunDriver, ConfigFileMergesUnderTheCommandLine) {
  const std::string path = ::testing::TempDir() + "/dare_driver_test.conf";
  {
    std::ofstream out(path);
    out << "jobs = 5\nseed = 9\n";
  }
  const DriverArgs spec{.keys = {"jobs", "seed"}, .config_file = true};
  Config seen;
  EXPECT_EQ(drive({"config=" + path, "seed=1"}, spec, &seen), 0);
  EXPECT_EQ(seen.get_int("jobs", 0), 5);
  EXPECT_EQ(seen.get_int("seed", 0), 1);  // the command line wins

  testing::internal::CaptureStderr();
  // Without config_file, config= is just an unknown key.
  EXPECT_EQ(drive({"config=" + path}, {{"jobs", "seed"}}), 1);
  // A typo in the file is rejected like one on the command line.
  {
    std::ofstream out(path);
    out << "jbos = 5\n";
  }
  EXPECT_EQ(drive({"config=" + path}, spec), 1);
  std::remove(path.c_str());
  // A missing file is an error, not a crash.
  EXPECT_EQ(drive({"config=" + path}, spec), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("jbos=..."), std::string::npos) << err;
  EXPECT_NE(err.find("error: Config: cannot read file"), std::string::npos)
      << err;
}

TEST(RunDriver, ExceptionsBecomeErrorAndExitOne) {
  std::string program = "driver";
  std::string arg = "jobs=abc";
  std::vector<char*> argv = {program.data(), arg.data()};
  testing::internal::CaptureStderr();
  const int status =
      run_driver(2, argv.data(), {{"jobs"}}, [](const Config& cfg) {
        return static_cast<int>(cfg.get_count<std::size_t>("jobs", 0));
      });
  const int thrown = run_driver(1, argv.data(), {{"jobs"}},
                                [](const Config&) -> int {
                                  throw std::logic_error("run failed");
                                });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, 1);
  EXPECT_EQ(thrown, 1);
  EXPECT_NE(err.find("error: Config: key 'jobs' is not an integer: abc"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("error: run failed"), std::string::npos) << err;
}

}  // namespace
}  // namespace dare
