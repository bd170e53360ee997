// Summary statistics for benchmark measurements.
//
// The paper reports min / average / max execution times per dataset family
// (Tables II and IV); Summary mirrors exactly that, plus stddev and median.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace paremsp {

/// One-pass accumulator (Welford) for mean and variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary of a sample set.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  double median = 0.0;
};

/// Summarize a sample vector. Empty input yields an all-zero Summary.
[[nodiscard]] Summary summarize(std::span<const double> samples);

/// The p-th percentile (p in [0, 100]) of `samples` by linear
/// interpolation between closest ranks (the numpy "linear" method, so
/// percentile(s, 50) == Summary::median). Empty input yields 0. The input
/// need not be sorted; the engine's latency snapshots (p50/p99) and the
/// throughput bench use this.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// percentile() for callers that already hold an ascending-sorted sample
/// buffer (avoids the copy + sort per call).
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

}  // namespace paremsp
