// dare_farm: resumable experiment-farm driver over cluster::ExperimentFarm.
//
// Declare a grid as `key=value[,value...]` axes (cluster override keys plus
// workload/jobs/wl_seed), run every combination as shared-nothing workers
// on the thread pool, journal each completion durably, and write merged
// CSV + JSON in grid order. A killed sweep resumes from the journal and
// produces byte-identical merged output to an uninterrupted run.
//
// Usage:
//   dare_farm [config=<file>] [key=value[,value...] ...]
//             [out=<prefix>] [journal=<path>] [threads=<n>]
//             [progress=1] [stop_after=<n>]
//
//   config=<file>    load grid keys from a config file (CLI keys override)
//   out=<prefix>     merged output prefix: <prefix>.csv, <prefix>.json
//                    (default "farm")
//   journal=<path>   completion journal (default "<out>.journal.jsonl";
//                    journal= with an empty value disables resume)
//   threads=<n>      worker threads (default: hardware concurrency)
//   progress=1       live completed/total meter on stderr
//   stop_after=<n>   test hook: hard-exit (as if SIGKILLed) once <n> items
//                    are in the journal — exercises interrupt/resume in CI
//
// Example:
//   dare_farm profile=cct nodes=20 scheduler=fifo,fair jobs=200
//             policy=vanilla,lru,elephant-trap seed=1,2,3
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/farm.h"
#include "common/config.h"

namespace {

using namespace dare;

const std::vector<std::string> kToolKeys = {"config",   "journal", "out",
                                            "progress", "stop_after",
                                            "threads"};

/// Write-then-rename like the journal: an interrupted run never leaves a
/// half-written merged output behind.
bool write_atomically(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << content;
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

int run(const Config& cfg) {
  const std::string out_prefix = cfg.get_string("out", "farm");
  std::string journal_path = out_prefix + ".journal.jsonl";
  if (cfg.contains("journal")) journal_path = cfg.get_string("journal", "");

  cluster::ExperimentFarm::Options options;
  options.threads = cfg.get_count<std::size_t>("threads", 0);
  options.journal_path = journal_path;
  const auto stop_after = cfg.get_count<std::size_t>("stop_after", 0);
  const bool progress_meter = cfg.get_bool("progress", false);
  if (stop_after != 0 || progress_meter) {
    options.progress = [stop_after, progress_meter](std::size_t done,
                                                    std::size_t total) {
      if (progress_meter) {
        std::cerr << "\r[farm " << done << '/' << total << ']'
                  << (done == total ? "\n" : "") << std::flush;
      }
      // Interrupt hook: the item that pushed `done` over the threshold is
      // already journaled, so _Exit here is indistinguishable from a
      // SIGKILL landing between two completions.
      if (stop_after != 0 && done >= stop_after && done < total) {
        std::cerr << "\n[farm] stop_after=" << stop_after
                  << " reached: hard exit (journal keeps " << done
                  << " items)\n";
        std::_Exit(3);
      }
    };
  }

  // Everything that is not a tool key is a grid axis.
  Config grid;
  for (const auto& key : cfg.keys()) {
    if (std::find(kToolKeys.begin(), kToolKeys.end(), key) != kToolKeys.end()) {
      continue;
    }
    grid.set(key, cfg.get_string(key, ""));
  }

  cluster::ExperimentFarm farm(cluster::expand_grid(grid), options);
  std::cout << "[farm] " << farm.items().size() << " items";
  if (!journal_path.empty()) std::cout << ", journal: " << journal_path;
  std::cout << '\n';

  const auto results = farm.run();
  std::size_t replayed = 0;
  for (const auto& result : results) replayed += result.from_journal ? 1 : 0;

  std::ostringstream csv;
  cluster::ExperimentFarm::write_csv(results, csv);
  std::ostringstream json;
  cluster::ExperimentFarm::write_json(results, json);
  const std::string csv_path = out_prefix + ".csv";
  const std::string json_path = out_prefix + ".json";
  if (!write_atomically(csv_path, csv.str()) ||
      !write_atomically(json_path, json.str())) {
    std::cerr << "error: cannot write merged output under prefix '"
              << out_prefix << "'\n";
    return 2;
  }
  std::cout << "[farm] " << results.size() << " items done (" << replayed
            << " replayed from journal)\n"
            << "[farm] wrote " << csv_path << ", " << json_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Grid keys (cluster overrides plus the workload keys) and tool keys; a
  // config=<file> is merged under the command line and checked the same.
  std::vector<std::string> keys =
      cluster::override_keys_for(cluster::farm_item_keys());
  keys.insert(keys.end(), kToolKeys.begin(), kToolKeys.end());
  return run_driver(argc, argv, {.keys = keys, .config_file = true}, run);
}
