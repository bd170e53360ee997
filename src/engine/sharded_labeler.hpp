// Sharded huge-image labeling through the batch engine.
//
// The engine scales MANY SMALL images across persistent workers; a
// request with LabelRequest::shard set points the same pool at ONE GIANT
// image. It is a single engine job that runs the run pipeline of the rle
// labelers (label_runs_impl, core/rle_labelers.hpp) over the request's
// tile grid, with every worker a participant of its phase loops:
//
//   scan tiles ──► merge seams (parallel REM, Algorithm 8)
//              ──► FLATTEN + canonical renumber, one piece per band
//              ──► rewrite tiles into the plane (or the caller's label_out)
//
// The worker that picked the job up runs pieces itself; the other workers
// join as their queue turns reach its helpers (common/executor.hpp). So a
// huge request never jumps ahead of small jobs already queued, and the
// job returns only once every piece has, which is what lets a ready
// future mean no worker still reads the borrowed input.
//
// Output is bit-identical to sequential AREMSP (8-conn) and CCLREMSP
// (4-conn) for every tile geometry and worker count (DESIGN.md §5, §8). A
// threshold request fuses the compare into per-tile run extraction; a
// strided ROI input shards zero-copy; stats requests fold per-tile feature
// cells (DESIGN.md §6). Deadlines and cancellation are checked at pickup
// and between the phases (DESIGN.md §12.4).
//
// `ShardOptions` itself lives in core/request.hpp (it is a LabelRequest
// field); paremsp::engine code keeps naming it engine::ShardOptions.
#pragma once

#include "core/request.hpp"

namespace paremsp::engine {

/// Tuning knobs for sharded requests (LabelRequest::shard); re-exported
/// for the engine-facing spelling `engine::ShardOptions`.
using ShardOptions = ::paremsp::ShardOptions;

}  // namespace paremsp::engine
