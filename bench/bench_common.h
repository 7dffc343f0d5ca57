// Shared helpers for the bench binaries: standard headers, the sweep
// helper and its progress meter, and CSV output. Each bench prints the
// rows/series of exactly one table or figure of the DARE paper; its main()
// is one call into dare::run_driver (common/config.h).
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "cluster/farm.h"
#include "common/config.h"
#include "common/table.h"
#include "obs/phase_profiler.h"

namespace dare::bench {

/// Global operator-new invocations observed so far in this process. Counted
/// by the replacement operators in alloc_probe.cpp (linked into every bench
/// binary); 0 under sanitizers, whose own allocator interposition must stay
/// in charge. Like peak RSS this is reporting-only telemetry — it never
/// feeds a fingerprint.
std::uint64_t allocation_count();

/// Memory telemetry for bench reports: process peak RSS (getrusage high
/// water, via PhaseProfiler so the one-clock-reader rule has a single home)
/// and cumulative heap allocation count. Excluded from fingerprints by
/// construction — RunResult never sees either number.
struct MemoryStats {
  std::int64_t peak_rss_kb = 0;
  std::uint64_t allocations = 0;
};

inline MemoryStats read_memory_stats() {
  MemoryStats stats;
  stats.peak_rss_kb = obs::PhaseProfiler::peak_rss_bytes() / 1024;
  stats.allocations = allocation_count();
  return stats;
}

/// Standard banner so bench outputs are self-describing in logs.
inline void banner(const std::string& experiment,
                   const std::string& paper_reference) {
  std::cout << "==============================================================\n"
            << experiment << '\n'
            << "Reproduces: " << paper_reference << '\n'
            << "==============================================================\n";
}

/// `progress=1`: live completed/total meter on stderr for a sweep (stderr
/// so redirected table output stays clean). The callback may run
/// concurrently on worker threads (cluster::SweepProgress contract), so
/// each update is formatted first and written with one insertion, which
/// stdio-synchronized std::cerr emits as one locked write: updates may
/// arrive out of order, but one never splits another.
inline cluster::SweepProgress progress_meter(const Config& cfg) {
  if (!cfg.get_bool("progress", false)) return {};
  return [](std::size_t done, std::size_t total) {
    std::string line = "\r[sweep ";
    line += std::to_string(done);
    line += '/';
    line += std::to_string(total);
    line += done == total ? "]\n" : "]";
    std::cerr << line << std::flush;
  };
}

/// Run one simulation of `wl` per cell on the sweep engine (one worker per
/// hardware thread) and return the results in cell order. `progress=1` in
/// `cfg` shows the meter, so every bench that sweeps through here must
/// accept the `progress` key.
inline std::vector<metrics::RunResult> run_cells(
    const Config& cfg, const std::vector<cluster::ClusterOptions>& cells,
    const workload::Workload& wl) {
  std::vector<metrics::RunResult> results(cells.size());
  cluster::run_sweep(
      cells.size(), 0,
      [&](std::size_t i) { results[i] = cluster::run_once(cells[i], wl); },
      progress_meter(cfg));
  return results;
}

/// If the run was given `csv=<dir-or-prefix>`, also write `table` as
/// `<prefix><name>.csv` so figure series can be re-plotted externally.
inline void maybe_write_csv(const Config& cfg, const std::string& name,
                            const AsciiTable& table) {
  const std::string prefix = cfg.get_string("csv", "");
  if (prefix.empty()) return;
  const std::string path = prefix + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  table.to_csv(out);
  std::cout << "[csv written: " << path << "]\n";
}

}  // namespace dare::bench
