// Measurement plumbing shared by every benchmark path: clocks, order
// statistics, label-plane hashing, peak-RSS tracking, the in-memory span
// recorder of the traced run, and the metric table printed at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "image/raster.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median and quartiles of a sample, as Python's
/// statistics.quantiles(n=4) (exclusive method) gives them.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample
/// in which a failed request is +inf: a percentile that lands on one
/// reads +inf (interpolating toward +inf with weight 0 would give NaN,
/// which is why paremsp::percentile is not used here).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// 64-bit digest of a label plane (row by row, so padding never counts).
[[nodiscard]] std::uint64_t hash_labels(const paremsp::LabelImage& labels);

/// Sequential-reference outcome of one input, computed before timing.
struct Reference {
  std::uint64_t hash = 0;
  paremsp::Label components = 0;
  std::optional<paremsp::analysis::ComponentStats> stats;
};

/// Restart the kernel's resident-set high-water mark (VmHWM). Returns
/// false where the kernel does not support the reset.
bool reset_peak_rss();
/// Resident-set high-water mark in MiB since the last reset.
[[nodiscard]] double peak_rss_mb();

/// One span of the traced run: a call the benchmark made into a layer.
struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 = root
  std::int64_t request = 0;
};

/// In-memory span recorder. Disabled (every call a no-op) in untraced
/// runs; thread-safe so generator and waiter threads can record.
class SpanRecorder {
 public:
  /// Start recording. Call before any other thread records.
  void enable() { enabled_ = true; }

  /// Open a span; returns its id (-1 when disabled).
  int begin(const char* name, std::int64_t request, int parent = -1);
  void end(int id);

  [[nodiscard]] std::size_t size() const;

  /// Write every span as JSON: name, start/end (ns), parent, request.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span over a SpanRecorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::int64_t request,
             int parent = -1)
      : recorder_(recorder), id_(recorder.begin(name, request, parent)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Named metrics in print order, each with the sample it summarizes.
class MetricTable {
 public:
  /// Add a metric whose reported value is the median of `samples`.
  void add(const std::string& name, const std::string& unit,
           std::vector<double> samples);
  /// Add a single-valued metric (a count or a ratio of medians).
  void add_value(const std::string& name, const std::string& unit,
                 double value);

  /// Human-readable lines: median, quartiles and sample count.
  void print(std::ostream& out) const;
  /// The "metrics" JSON object: {name: {"value": v, "unit": u}, ...}.
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    Summary summary;
  };
  std::vector<Entry> entries_;
};

/// JSON string literal (quotes and escapes).
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
