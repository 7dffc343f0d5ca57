// The sweep engine every parameter sweep runs on, and the resumable
// experiment farm built on it: the farm expands a declarative parameter
// grid into deterministic, keyed work items, runs them as shared-nothing
// simulations through the engine, journals every completion durably, and
// merges results in grid order.
//
// The design follows the SLASH2 update scheduler (doc/upsch.xdc): work is
// keyed per item, completed items are persisted immediately so a reboot
// resumes where it left off instead of redoing work, and live status is
// observable while the sweep runs. upsch also bounds how much work is in
// flight; the farm queues a whole grid at once (DESIGN.md §5h says why).
//
// Determinism contract: every item is a self-contained `Config` (cluster
// overrides plus the workload keys below), identified by its canonical
// key — the sorted `key=value` rendering of that Config. Simulations are
// single-threaded and seeded, so an item's RunResult (and therefore its
// metrics::fingerprint and formatted result row) is a pure function of its
// key. Merged CSV/JSON output is emitted in grid order, never completion
// order, so a resumed, killed-and-restarted, or differently-threaded sweep
// produces byte-identical merged output to an uninterrupted serial one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "common/config.h"
#include "metrics/run_metrics.h"

namespace dare::cluster {

/// Sweep progress observer, invoked with (completed_so_far, total) once per
/// completed item. The completion counter is read under a mutex, but the
/// observer runs on a pool worker thread with no lock held, so:
///   - calls arrive in completion order, which is nondeterministic, and may
///     overlap in time — observers must be thread-safe (a bare stream write
///     like the bench progress meter is fine);
///   - observers must only report progress, never feed results (result
///     order is preserved separately);
///   - a throwing observer does not stall other workers, but its exception
///     becomes that item's failure and is rethrown by run_sweep: the
///     completed item's result is lost. Observers should not throw.
using SweepProgress = std::function<void(std::size_t, std::size_t)>;

/// The sweep engine: runs `task(i)` for every i in [0, n) on a thread pool
/// of min(threads, n) workers (threads 0 -> hardware concurrency) and
/// returns once every task has finished, even when some throw; the
/// exception of the lowest index is then rethrown. Tasks must be
/// self-contained and write only their own result slot. `done` counts
/// items finished before the sweep started (a resumed farm's replays):
/// when nonzero, progress(done, done + n) is reported first, and each
/// completion then reports done + k.
void run_sweep(std::size_t n, std::size_t threads,
               const std::function<void(std::size_t)>& task,
               const SweepProgress& progress = {}, std::size_t done = 0);

/// Column schema of a farm result row: a fixed, ordered subset of
/// RunResult's scalar fields. Doubles are rendered with format_double
/// (shortest round-trip form), counters with std::to_string, so a value
/// parsed back from a journal is bit-identical to the freshly computed one.
const std::vector<std::string>& farm_columns();

/// Item keys run_farm_item() recognizes beyond cluster::override_keys():
///   workload=wl1|wl2   jobs=<n>   wl_seed=<n>
/// (wl_seed defaults to 1 for wl1 and 2 for wl2, matching standard_wl*).
const std::vector<std::string>& farm_item_keys();

/// Canonical identity of a work item: its `key=value` pairs sorted by key
/// and joined with single spaces. Insertion order never matters.
std::string canonical_item_key(const Config& item);

/// Run one self-contained work item: paper_defaults + apply_overrides for
/// the cluster, standard_wl1/standard_wl2 for the workload, run_once for
/// the simulation. Unknown keys are ignored (same contract as
/// apply_overrides); malformed values for known keys throw.
metrics::RunResult run_farm_item(const Config& item);

/// One formatted result row, parallel to farm_columns().
struct FarmRow {
  std::vector<std::string> values;
};

FarmRow make_farm_row(const metrics::RunResult& result);

struct FarmResult {
  std::size_t index = 0;       ///< position in grid order
  std::string key;             ///< canonical_item_key of the item
  std::uint64_t fingerprint = 0;
  FarmRow row;
  bool from_journal = false;   ///< replayed, not re-run

  /// Numeric view of a row cell (std::from_chars — locale-independent and
  /// exact for round-trip forms). Throws std::out_of_range on an unknown
  /// column name.
  double metric(const std::string& column) const;
};

/// Expand a grid spec into work items. Every key whose raw value contains
/// commas is an axis (values in written order); single-valued keys are
/// constants. Axes iterate in sorted key order with the lexicographically
/// last key varying fastest — a deterministic grid order independent of
/// how the spec was written.
std::vector<Config> expand_grid(const Config& spec);

/// One journal record: `{"v":1,"key":"...","fingerprint":"%016x",
/// "row":["...",...]}` on a single line (JSONL).
struct JournalEntry {
  std::string key;
  std::uint64_t fingerprint = 0;
  FarmRow row;
};

std::string journal_line(const JournalEntry& entry);

/// Strict parse of one line; false on any malformation (wrong version,
/// truncated tail, row arity mismatch with farm_columns()).
bool parse_journal_line(const std::string& line, JournalEntry* out);

/// Replay a journal file. Tolerant of interruption artifacts: a missing
/// file yields an empty vector and parsing stops at the first malformed
/// (torn) line, discarding it and everything after.
std::vector<JournalEntry> read_journal(const std::string& path);

class ExperimentFarm {
 public:
  struct Options {
    /// Worker threads (0 -> hardware concurrency); never more than the
    /// items left to run.
    std::size_t threads = 0;
    /// Completion journal. Empty disables journaling and resume. Appends
    /// are write-then-rename: the whole journal is rewritten to
    /// `<path>.tmp` and atomically renamed over `<path>`, so a kill at any
    /// instant leaves either the old or the new journal, never a torn one.
    std::string journal_path;
    /// Invoked after each item completes (journal append included) and
    /// once up front when a resume replays completed items (the
    /// SweepProgress contract above).
    SweepProgress progress;
  };

  /// Items run in the given (grid) order; each is canonicalized via
  /// canonical_item_key. Throws std::invalid_argument on duplicate keys —
  /// the journal could not tell such items apart.
  explicit ExperimentFarm(std::vector<Config> items);
  ExperimentFarm(std::vector<Config> items, Options options);

  const std::vector<Config>& items() const { return items_; }
  const std::vector<std::string>& keys() const { return keys_; }

  /// Run every item not already in the journal through run_sweep; replay
  /// the rest. Results are indexed in grid order regardless of completion
  /// order. The first exception thrown by an item (in grid order) is
  /// rethrown after every item has finished.
  std::vector<FarmResult> run();

  /// Merged outputs, grid order. CSV columns: key, farm_columns...,
  /// fingerprint. JSON mirrors the same rows as an object array.
  static void write_csv(const std::vector<FarmResult>& results,
                        std::ostream& out);
  static void write_json(const std::vector<FarmResult>& results,
                         std::ostream& out);

 private:
  std::vector<Config> items_;
  std::vector<std::string> keys_;
  Options options_;
};

}  // namespace dare::cluster
