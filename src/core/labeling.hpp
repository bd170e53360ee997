// Public labeling interface.
//
// Every CCL algorithm in the library (the paper's CCLREMSP / AREMSP /
// PAREMSP and all baselines) implements Labeler. The single execution
// entry point is Labeler::run(LabelRequest) — a parameterized request over
// a zero-copy ConstImageView (core/request.hpp) — which returns a
// LabelResponse with consecutive final labels 1..num_components
// (0 = background), optional fused component stats, and per-phase
// wall-clock timings (exactly the split the paper's Figure 5 plots:
// Phase-I local scan vs boundary merge vs FLATTEN vs final labeling).
// label(view) is the one convenience: run() with a default request.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "analysis/component_stats.hpp"
#include "common/types.hpp"
#include "image/connectivity.hpp"
#include "image/raster.hpp"
#include "image/view.hpp"

namespace paremsp {

class LabelScratch;   // core/label_scratch.hpp
struct LabelRequest;  // core/request.hpp

/// Every labeling algorithm in the library. (Defined here rather than in
/// registry.hpp so the Labeler base can carry its own identity; the
/// registry remains the catalog over these ids.) Ids are stable: deleting
/// an algorithm leaves a gap instead of renumbering the rest, so a printed
/// id keeps naming the same algorithm (1-3 were the multi-pass and
/// He 2008 baselines, DESIGN.md §2 S7).
enum class Algorithm {
  FloodFill = 0,   // BFS oracle (tests)
  Arun = 4,        // He 2012 two-line two-scan [37]
  Ccllrpc,         // Wu 2009 decision tree + array union-find [36]
  Cclremsp,        // paper §III-A: decision tree + REMSP
  Aremsp,          // paper §III-B: two-line scan + REMSP
  Paremsp,         // paper §IV: parallel AREMSP
  ParemspTiled,    // extension: 2-D tiled PAREMSP over runs
  AremspRle,       // extension: run-based AREMSP (bit-packed rows)
  ParemspRle,      // extension: run-based PAREMSP (row bands)
};

/// Work counters accompanying the phase timings — how much each phase
/// DID, not just how long it took, so a perf regression decomposes into
/// "more work" vs "slower work". Filled by the REMSP labelers; baselines
/// leave them zero. Invariant (asserted by tests/test_obs.cpp): every
/// successful union joins two distinct REM trees, so
///   scan_unions + merge_unions == provisional_labels - num_components
/// exactly, for every chunking, tile geometry, and thread count.
struct PhaseCounters {
  Label provisional_labels = 0;      // labels issued by Phase I
  std::uint64_t scan_unions = 0;     // trees joined during the local scans
  std::uint64_t merge_pairs = 0;     // equivalences fed to the seam merger
  std::uint64_t merge_unions = 0;    // of those, how many joined trees
  std::uint64_t merge_retries = 0;   // lock re-checks that found the root
                                     // re-parented (stripe contention)
  std::uint64_t runs_extracted = 0;  // maximal runs (rle pipelines only)
  std::uint64_t tiles = 0;           // tiles / chunks / shards scanned

  [[nodiscard]] std::uint64_t total_unions() const noexcept {
    return scan_unions + merge_unions;
  }
};

/// Wall-clock breakdown of one labeling run, in milliseconds.
struct PhaseTimings {
  double scan_ms = 0.0;     // Phase I: provisional labels + local equivalences
  double merge_ms = 0.0;    // boundary merging (parallel algorithms only)
  double flatten_ms = 0.0;  // analysis phase (FLATTEN / table resolution)
  double relabel_ms = 0.0;  // final labeling pass
  double total_ms = 0.0;    // end-to-end, >= sum of the phases
  // Time the request sat in the engine's JobQueue before a worker picked
  // it up. Always 0 for direct Labeler::run() calls; the engine fills it,
  // and it is NOT part of total_ms (which clocks the labeling itself).
  double queue_wait_ms = 0.0;
  PhaseCounters counters;

  /// Phase-I time as plotted in Figure 5a ("local").
  [[nodiscard]] double local_ms() const noexcept { return scan_ms; }
  /// Local + merge time as plotted in Figure 5b.
  [[nodiscard]] double local_plus_merge_ms() const noexcept {
    return scan_ms + merge_ms;
  }
  /// Sum of the four phase buckets (reconciles with total_ms to within
  /// the inter-phase bookkeeping — the service asserts < 5%).
  [[nodiscard]] double phase_sum_ms() const noexcept {
    return scan_ms + merge_ms + flatten_ms + relabel_ms;
  }
};

/// Outcome of one labeling request — the only result shape in the library.
struct LabelResponse {
  /// Owned label plane (packed), when the request asked for labels and
  /// did not redirect them into label_out; empty otherwise.
  LabelImage labels;
  /// Components found: final labels are 1..num_components, 0 background.
  Label num_components = 0;
  /// Per-component features; engaged iff request.outputs.stats. Value-
  /// identical to analysis::compute_stats(labels, num_components) whether
  /// fused into the scan or computed by the post-pass fallback.
  std::optional<analysis::ComponentStats> stats;
  /// Per-phase wall-clock breakdown of the run.
  PhaseTimings timings;
};

/// Abstract connected-component labeler.
///
/// Construction fixes the algorithm identity and the DEFAULT connectivity;
/// a LabelRequest may override connectivity per call, validated through
/// the registry's require_supported so direct construction, make_labeler
/// and per-request overrides all reject an unsupported combination with
/// the same PreconditionError.
class Labeler {
 public:
  virtual ~Labeler() = default;

  /// Stable algorithm identifier (e.g. "aremsp", "paremsp").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True if the implementation uses multiple threads.
  [[nodiscard]] virtual bool is_parallel() const noexcept { return false; }

  /// Registry id of this labeler.
  [[nodiscard]] Algorithm algorithm() const noexcept { return algorithm_; }

  /// Connectivity used when a request does not override it.
  [[nodiscard]] Connectivity default_connectivity() const noexcept {
    return default_connectivity_;
  }

  /// Execute one labeling request (see core/request.hpp for the request /
  /// response contract). The input view is read zero-copy — strided ROIs
  /// are labeled in place, never materialized. Postcondition: the labels
  /// (wherever the request routed them) pass analysis::validate_labeling.
  [[nodiscard]] LabelResponse run(const LabelRequest& request) const;

  /// run() drawing all transient storage from `scratch`, so repeated
  /// calls on a warm LabelScratch run allocation-free on the hot path.
  /// Bit-identical to the one-shot overload — scratch only changes where
  /// buffers come from, never the result.
  [[nodiscard]] LabelResponse run(const LabelRequest& request,
                                  LabelScratch& scratch) const;

  /// Label every connected component of `image` (any view: a raster, an
  /// ROI, a caller-owned buffer) under the default connectivity — run()
  /// with a default request.
  [[nodiscard]] LabelResponse label(ConstImageView image) const;

 protected:
  /// Registers identity and validates the default connectivity through
  /// require_supported — direct construction of any labeler rejects an
  /// unsupported connectivity exactly like make_labeler does.
  Labeler(Algorithm algorithm, Connectivity connectivity);

  /// The single override point: label `image` under `connectivity`
  /// (already validated against the registry), drawing transient storage
  /// from `scratch`. When `stats` is non-null the implementation must
  /// also fill it with per-component features value-identical to
  /// analysis::compute_stats on its own output — fused into the scan
  /// where the algorithm supports it, via the post-pass otherwise.
  /// The returned label plane is always packed and owned (run() routes it
  /// into the caller's label_out view when the request asks); run() also
  /// engages the response's stats, so implementations leave it empty.
  [[nodiscard]] virtual LabelResponse run_impl(
      ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
      analysis::ComponentStats* stats) const = 0;

  /// Grayscale override point backing LabelRequest::threshold: label the
  /// pixels of `gray` strictly above `cutoff` (the exact integer form of
  /// im2bw's compare). The base implementation materializes the binarized
  /// plane and delegates to run_impl — value-identical by construction.
  /// The run-based labelers override it to fuse the compare into
  /// bit-packed run extraction, so no intermediate plane ever exists.
  [[nodiscard]] virtual LabelResponse run_gray_impl(
      ConstImageView gray, std::uint8_t cutoff, Connectivity connectivity,
      LabelScratch& scratch, analysis::ComponentStats* stats) const;

 private:
  Algorithm algorithm_;
  Connectivity default_connectivity_;
};

}  // namespace paremsp
