// The benchmark's calls into the library, one function per path:
//
//   run_executor      one repetition of a one-shot executor (Labeler::run
//                     or LabelingEngine::submit) over the workload's
//                     one-shot inputs, or of an engine stream session;
//   drive_open_loop   Poisson request traffic against an engine, timed
//                     from each request's due time to its ready future;
//   drive_closed_loop the same request mix from a fixed number of clients,
//                     each waiting for its previous request (capacity);
//   run_pipeline      the run-based tiled pipeline composed from the
//                     public tiled_phases functions, one span per layer;
//   run_core_stream   a single-threaded stream::SlabSession pass.
//
// Every output is checked against the workload's sequential reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/label_scratch.hpp"
#include "core/labeling.hpp"
#include "engine/engine.hpp"
#include "measure.hpp"
#include "stream/slab_session.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr int kExecutors = 5;
inline constexpr std::array<const char*, kExecutors> kExecNames = {
    "aremsp", "paremsp", "paremsp2d", "sharded", "stream"};
enum Exec : int { kAremsp, kParemsp, kParemsp2d, kSharded, kStream };

/// Verification outcome of every output the benchmark checked.
struct Checks {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> mismatched{0};  // output differs from reference
  std::atomic<std::uint64_t> errors{0};      // call threw (not a shed)
  /// Smoke-test hook: flip one label of the next checked label plane,
  /// which verification must then catch.
  std::atomic<bool> corrupt_next{false};

  /// Check a one-shot response against `in`'s reference.
  bool check(paremsp::LabelResponse& response, const Input& in);
  /// Check a finished stream (count and stats) against `in`'s reference.
  bool check(const paremsp::stream::StreamResult& result, const Input& in);
};

/// What set-up builds: the three Labeler executors (sharing one warm
/// scratch), the engine behind the sharded and stream executors, and the
/// default-config engine that serves the open-loop traffic.
struct Executors {
  explicit Executors(int threads);

  std::array<std::unique_ptr<paremsp::Labeler>, 3> labelers;
  paremsp::LabelScratch scratch;
  std::unique_ptr<paremsp::engine::LabelingEngine> engine;
  std::unique_ptr<paremsp::engine::LabelingEngine> service;
};

/// One executor repetition.
struct ExecSample {
  double ms = 0.0;               // wall time inside the executor's calls
  std::int64_t pixels = 0;       // pixels labeled
  paremsp::PhaseTimings phases;  // summed over the calls (one-shot only)
  double window_block_ms = 0.0;  // stream: time push_slab blocked
  std::int64_t passes = 1;       // stream: sessions run back to back

  [[nodiscard]] double mpx_per_s() const {
    return static_cast<double>(pixels) / (ms * 1e3);
  }
  /// Wall time of one pass over the executor's inputs.
  [[nodiscard]] double pass_ms() const {
    return ms / static_cast<double>(passes);
  }
};

ExecSample run_executor(Executors& ex, const Workload& w, int exec,
                        Checks& checks, SpanRecorder& spans);

/// One open-loop phase: `seconds` of Poisson arrivals at `rate` img/s,
/// then every outstanding request drained.
struct ServiceRun {
  struct Request {
    double due_ms = 0.0;    // since the phase start
    double ready_ms = 0.0;  // when its future became ready
    bool ok = false;        // delivered, verified and not shed
  };
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Request> requests;
  std::vector<double> queue_wait_ms;  // ok requests: latency - total_ms
  std::array<std::vector<double>, kClasses> service_ms;
  std::vector<double> late_ms;
  std::vector<double> stats_call_us;
  double submit_block_max_ms = 0.0;
  std::uint64_t completed_ok = 0;
  std::uint64_t shed = 0;

  /// Latency percentile `p` (due time to ready future, ms; +inf for a
  /// failed request), computed in each of `windows` equal sub-windows of
  /// the phase: one value per window.
  [[nodiscard]] std::vector<double> window_percentiles(double p,
                                                       int windows) const;
  /// The median of the window percentiles: a neighbour's burst on a
  /// shared host that disturbs one window does not move it, a change
  /// that slows most windows does.
  [[nodiscard]] double percentile_ms(double p, int windows) const {
    return summarize(window_percentiles(p, windows)).median;
  }
};

ServiceRun drive_open_loop(paremsp::engine::LabelingEngine& engine,
                           const Workload& w, double rate, double seconds,
                           std::uint64_t seed, Checks& checks,
                           SpanRecorder& spans);

/// One closed-loop phase: `clients` threads, each submitting its next
/// request (same class mix as the open loop, the limit as its deadline)
/// as soon as its previous one is ready, for `seconds`.
struct CapacityRun {
  double seconds = 0.0;
  std::vector<double> done_ms;  // ready time of each ok request
  std::vector<double> latency_ms;
  std::uint64_t shed = 0;

  /// Ok requests per second in each of `windows` equal sub-windows.
  [[nodiscard]] std::vector<double> window_rates(int windows) const;
};

CapacityRun drive_closed_loop(paremsp::engine::LabelingEngine& engine,
                              const Workload& w, int clients, double seconds,
                              std::uint64_t seed, Checks& checks);

/// One pass of the composed run pipeline over every one-shot input.
/// image.extract is an extra, isolated pass (scan_tile extracts again).
struct PipelineSample {
  double extract_ms = 0.0;
  double scan_ms = 0.0;
  double seam_ms = 0.0;
  double resolve_ms = 0.0;
  double rewrite_ms = 0.0;
  std::int64_t rewrite_bytes = 0;
  std::uint64_t runs = 0;
  std::uint64_t provisional_labels = 0;
  std::uint64_t scan_unions = 0;
  std::uint64_t merge_pairs = 0;
  std::uint64_t merge_unions = 0;
  std::uint64_t components = 0;
  std::uint64_t tiles = 0;

  /// The labeling proper: scan + seam merge + resolve + rewrite.
  [[nodiscard]] double labeling_ms() const {
    return scan_ms + seam_ms + resolve_ms + rewrite_ms;
  }
};

PipelineSample run_pipeline(const Workload& w, Checks& checks,
                            SpanRecorder& spans);

/// One single-threaded stream::SlabSession pass over the stream input.
struct CoreStreamSample {
  double wall_ms = 0.0;
  std::vector<double> push_ms;
  double finish_ms = 0.0;
  std::size_t seam_state_bytes_max = 0;
  std::size_t slab_working_bytes = 0;
};

CoreStreamSample run_core_stream(const Workload& w, Checks& checks,
                                 SpanRecorder& spans);

}  // namespace perfbench
