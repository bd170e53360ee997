// Unified request/response labeling API.
//
// One parameterized entry point on every executor, one result shape
// (LabelResponse, core/labeling.hpp):
//
//   LabelRequest request;
//   request.input = image;                    // raster, ROI, or raw buffer
//   request.outputs.stats = true;             // what to compute
//   LabelResponse r = labeler->run(request);  // or engine.submit(request)
//
// Production CCL front ends (OpenCV's connectedComponentsWithStats, the
// GPU union-find line of Chen et al., the run-based analysis API of
// Lemaitre & Lacassagne) converge on exactly this shape: a single call
// over a non-owning image view, parameterized by connectivity and the
// requested outputs. A new capability becomes a request field here, not
// a new method family.
//
// Ownership and lifetime: a request BORROWS everything it references.
// `input` (and `label_out`, when set) must stay alive and unmodified for
// the duration of run(); for the engine's asynchronous submit(), until the
// returned future is ready. See DESIGN.md §7 for the dataflow.
#pragma once

#include <optional>

#include "analysis/component_stats.hpp"
#include "core/labeling.hpp"
#include "core/qos.hpp"
#include "image/connectivity.hpp"
#include "image/view.hpp"

namespace paremsp {

/// Which outputs a request asks for. `num_components` and timings are
/// always produced; the label plane and the per-component stats are
/// selectable (a stats-only request skips returning the plane entirely —
/// the counting/measuring workload).
struct OutputSet {
  bool labels = true;  // deliver the label plane (owned or via label_out)
  bool stats = false;  // per-component area/bbox/centroid (fused when able)
};

/// Which scan kernel the sharded tile pipeline runs per tile. Runs is
/// the only one: tiles scan bit-packed runs and seam merges operate on
/// the boundary runs of adjacent tiles (core/tiled_phases.hpp). The enum
/// stays so existing `ShardOptions{rows, cols, ShardScan::Runs}`
/// initializers keep compiling.
enum class ShardScan { Runs };

/// Tuning knobs for sharded execution of one huge image across the
/// engine's worker pool (the scan → seam-merge → flatten → rewrite
/// dataflow of engine/sharded_labeler.hpp). Lives at the request layer so
/// `LabelRequest::shard` can select the sharded path; the semantics —
/// which pixels end up in which component — are unchanged by sharding
/// (bit-identical to sequential AREMSP / CCLREMSP for every tile
/// geometry).
struct ShardOptions {
  /// Tile height in rows; any value >= 1 (oversize clamps to the image).
  Coord tile_rows = 512;
  /// Tile width in columns. Minimum 1.
  Coord tile_cols = 512;
  /// Per-tile scan kernel; Runs is the only value (see ShardScan).
  ShardScan scan = ShardScan::Runs;
};

/// One labeling request: what to label, under which connectivity, which
/// outputs to produce, and (optionally) where to put the labels and how to
/// schedule the work.
struct LabelRequest {
  /// The pixels to label (nonzero = foreground). Any strided view: a whole
  /// raster, an ROI subview, or a window over a caller-owned buffer. Read
  /// zero-copy by every algorithm.
  ConstImageView input;

  /// Per-request connectivity override; nullopt uses the labeler's (or
  /// engine worker's) construction default. Validated through the
  /// registry's require_supported, so an unsupported combination throws
  /// the same PreconditionError as construction would.
  std::optional<Connectivity> connectivity;

  /// Grayscale fusion: when set, `input` is a GRAYSCALE image and the
  /// foreground is the pixels strictly above floor(threshold * 255) — the
  /// exact integer form of im2bw's compare (image/threshold.hpp), so
  /// labeling a GrayImage with a level here is bit-identical to
  /// im2bw + label. The run-based labelers (and the sharded and stream
  /// pipelines) fuse the compare into bit-packed run extraction (RowBits
  /// threshold kernels) and never materialize the binary plane; the
  /// remaining labelers binarize internally with identical results.
  /// Must be within [0.0, 1.0].
  std::optional<double> threshold;

  /// What to compute.
  OutputSet outputs;

  /// Optional caller-owned destination for the final labels (dimensions
  /// must equal input's; may be strided — e.g. an ROI of a larger label
  /// plane). When set, the labels are written here and
  /// LabelResponse::labels stays empty. When unset and outputs.labels is
  /// true, the response carries an owned packed plane.
  std::optional<MutableImageView> label_out;

  /// Engine scheduling hint: when set, LabelingEngine::submit labels the
  /// image through the sharded tile pipeline (one huge image across the
  /// worker pool) instead of as a single job. Ignored by direct
  /// Labeler::run — sharding never changes the result, only where the
  /// work runs, so a request means the same thing on either executor.
  std::optional<ShardOptions> shard;

  /// QoS: latency budget from the moment the executor accepts the work.
  /// The engine sheds an expired job at its next check point (worker
  /// pickup for one-shot jobs, phase boundaries for sharded runs) — the
  /// future throws DeadlineExceededError and jobs_shed increments.
  /// Validated > 0 (a non-positive budget is a caller bug, not load).
  /// Direct Labeler::run validates but does not enforce it: a synchronous
  /// call has no queue to sit in (see core/qos.hpp).
  std::optional<Deadline> deadline;

  /// QoS: cancellation flag, polled at the same check points as the
  /// deadline. Default-constructed = never cancelled. A cancelled job's
  /// future throws CancelledError and jobs_cancelled increments; direct
  /// Labeler::run honors it at entry.
  CancelToken cancel;
};

/// Resolve a request's effective connectivity (the override when set,
/// `fallback` — the executing labeler's construction default — otherwise)
/// and validate the request against `algorithm`: the connectivity gate
/// through the registry's require_supported plus the label_out dimension
/// contract. The single gate shared by Labeler::run and the engine's
/// sharded path, so every executor accepts and rejects identically.
[[nodiscard]] Connectivity validate_request(const LabelRequest& request,
                                            Algorithm algorithm,
                                            Connectivity fallback);

}  // namespace paremsp
