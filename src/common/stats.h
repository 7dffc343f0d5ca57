// Statistics used throughout the evaluation: Welford online moments,
// min/mean/max/std summaries (Tables I and II), geometric mean of turnaround
// times (Eq. 1), coefficient of variation of popularity indices (Fig. 11),
// percentiles, histograms, and empirical CDFs (Figs. 3-6).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace dare {

/// Single-pass (Welford) accumulator for count/mean/variance/min/max.
class OnlineStats {
 public:
  void add(double x);

  /// Merge another accumulator (parallel-sweep friendly; Chan et al.).
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean_ * static_cast<double>(n_); }
  /// Coefficient of variation: stddev / |mean|; 0 when mean == 0.
  double cv() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric mean of strictly positive values. Values <= 0 cannot enter the
/// log-domain mean and are skipped; when `skipped` is non-null the number of
/// skipped values is reported there so callers can account for them (a
/// zero-turnaround job silently dropped from GMTT inflates the mean).
/// Returns 0 when no positive values are present.
double geometric_mean(const std::vector<double>& values,
                      std::size_t* skipped = nullptr);

/// Coefficient of variation of a sample (population stddev / |mean|),
/// the paper's uniformity measure for Fig. 11. Returns 0 for empty input or
/// zero mean.
double coefficient_of_variation(const std::vector<double>& values);

/// Linear-interpolated percentile, q in [0, 100]. Sorts a copy.
double percentile(std::vector<double> values, double q);

/// Fixed-width histogram over [lo, hi) with `bins` buckets; finite
/// out-of-range samples are clamped into the edge buckets. Non-finite
/// samples (NaN, ±inf) cannot be binned — casting their bin index is
/// undefined behaviour — so they are counted in `dropped()` instead.
class Histogram {
 public:
  /// Throws std::invalid_argument unless bins > 0 and hi > lo (validated
  /// before any arithmetic uses the arguments).
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  /// Number of non-finite samples rejected by add(); never part of total().
  std::size_t dropped() const { return dropped_; }
  /// Fraction of samples in bin i (0 when empty).
  double proportion(std::size_t i) const;
  /// Midpoint value of bin i.
  double bin_center(std::size_t i) const;

 private:
  double lo_ = 0.0;
  double width_ = 0.0;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t dropped_ = 0;
};

/// Empirical CDF: collect samples, then query F(x) or the quantiles.
/// Fully synchronized: every member — mutation and the lazy sort behind
/// const queries alike — holds sort_mutex_, so one CDF may be shared across
/// sweep workers that interleave add() with queries. (Queries used
/// to read data_ before taking the lock, and add() never took it at all;
/// the clang thread-safety annotations below are what flagged that.)
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  EmpiricalCdf(const EmpiricalCdf& other);
  EmpiricalCdf(EmpiricalCdf&& other) noexcept;
  EmpiricalCdf& operator=(const EmpiricalCdf& other);
  EmpiricalCdf& operator=(EmpiricalCdf&& other) noexcept;

  void add(double x);
  void add_all(const std::vector<double>& xs);

  /// Fraction of samples <= x. 0 for empty.
  double fraction_at_or_below(double x) const;

  /// q-th quantile with linear interpolation, q in [0,1].
  double quantile(double q) const;

  std::size_t count() const;

  /// Reference to the sorted sample vector. The reference outlives the
  /// internal lock: do not call concurrently with mutation of this CDF.
  const std::vector<double>& sorted_values() const;

 private:
  void ensure_sorted_locked() const DARE_REQUIRES(sort_mutex_);

  mutable Mutex sort_mutex_;
  mutable std::vector<double> data_ DARE_GUARDED_BY(sort_mutex_);
  mutable bool sorted_ DARE_GUARDED_BY(sort_mutex_) = true;
};

/// min/mean/max/stddev row, formatted like the paper's Tables I and II.
struct SummaryRow {
  std::string label;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

/// Build a SummaryRow from raw samples.
SummaryRow summarize(const std::string& label,
                     const std::vector<double>& values);

}  // namespace dare
