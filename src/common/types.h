// Fundamental identifier and quantity types shared by every DARE subsystem.
//
// All simulation time is integral microseconds (`SimTime`) so that event
// ordering is exact and runs are bit-reproducible across platforms; helper
// constructors/accessors convert to and from floating-point seconds only at
// the API boundary.
#pragma once

#include <cstdint>
#include <limits>

namespace dare {

/// Simulation time in microseconds since simulation start.
using SimTime = std::int64_t;

/// A duration in microseconds.
using SimDuration = std::int64_t;

/// Sentinel for "no time" / "never".
inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::max();

/// Convert seconds (floating point) to SimTime microseconds.
constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * 1e6);
}

/// Convert SimTime microseconds to floating-point seconds.
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e6; }

/// Convert milliseconds to SimTime microseconds.
constexpr SimTime from_millis(double ms) {
  return static_cast<SimTime>(ms * 1e3);
}

/// Bytes of data. 64-bit: block sizes are up to 256 MB, files span terabytes.
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Bandwidth expressed in bytes per second.
using BytesPerSec = double;

/// Convert a MB/s figure (as the paper reports) to bytes/second (MB = 2^20).
constexpr BytesPerSec mb_per_sec(double mb) {
  return mb * static_cast<double>(kMiB);
}

/// Identifier of a cluster node (0-based dense index; node 0 is the master).
using NodeId = std::int32_t;

/// Identifier of a file in the distributed file system.
using FileId = std::int64_t;

/// Identifier of a data block. Blocks are globally unique, not per-file.
using BlockId = std::int64_t;

/// Identifier of a MapReduce job.
using JobId = std::int64_t;

/// Identifier of a task within the whole simulation (globally unique).
using TaskId = std::int64_t;

/// Identifier of a rack in the topology.
using RackId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr FileId kInvalidFile = -1;
inline constexpr BlockId kInvalidBlock = -1;
inline constexpr JobId kInvalidJob = -1;
inline constexpr TaskId kInvalidTask = -1;

}  // namespace dare
