#include "core/scarlett.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dare::core {

ScarlettPlanner::ScarlettPlanner(const ScarlettParams& params)
    : params_(params) {}

void ScarlettPlanner::record_access(FileId file) {
  if (file < 0) throw std::out_of_range("ScarlettPlanner: negative file id");
  const auto f = static_cast<std::size_t>(file);
  if (f >= window_.size()) window_.resize(f + 1, 0);
  ++window_[f];
}

std::uint64_t ScarlettPlanner::window_accesses() const {
  return std::accumulate(window_.begin(), window_.end(), std::uint64_t{0});
}

std::vector<ReplicationOrder> ScarlettPlanner::plan_epoch(
    Bytes budget_remaining, const std::vector<Bytes>& file_bytes,
    const std::vector<int>& current_replication) {
  // Sort the accessed files by observed popularity, most accessed first.
  std::vector<std::pair<FileId, std::uint64_t>> ranked;
  for (std::size_t f = 0; f < window_.size(); ++f) {
    if (window_[f] > 0) ranked.emplace_back(static_cast<FileId>(f), window_[f]);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });

  std::vector<ReplicationOrder> orders;
  for (const auto& [file, accesses] : ranked) {
    const auto f = static_cast<std::size_t>(file);
    if (f >= file_bytes.size() || f >= current_replication.size()) continue;
    const int current = current_replication[f];
    const int desired = std::min(
        params_.max_replication,
        current + static_cast<int>(std::ceil(
                      static_cast<double>(accesses) /
                      params_.accesses_per_replica)) -
            1);
    if (desired <= current) continue;
    // Budget check: each extra replica of the file costs its full size.
    const Bytes cost = file_bytes[f] * static_cast<Bytes>(desired - current);
    if (cost > budget_remaining) continue;
    budget_remaining -= cost;
    orders.push_back(ReplicationOrder{file, current, desired});
  }
  window_.clear();
  return orders;
}

}  // namespace dare::core
