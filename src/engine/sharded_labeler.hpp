// Sharded huge-image labeling through the batch engine.
//
// PR 1's engine scales MANY SMALL images across persistent workers; this
// path points the same worker pool at ONE GIANT image. The image is
// decomposed into a grid of tiles (core/tiled_phases.hpp) and labeled as a
// dataflow of engine jobs:
//
//   submit(request with .shard) ──► run-scan job per tile ──┐ (latch)
//                                                           ▼
//                  run seam-merge job per tile (parallel REM, Algorithm 8)
//                                          │ (completion latch)
//                                          ▼
//         FLATTEN + canonical renumber: flatten, number and finalize
//         jobs per band (a strip of tile rows), each behind its own latch
//                                          │
//                      rewrite job per tile ──► deliver(LabelResponse)
//
// Fan-in uses a per-phase completion latch on the shared run state rather
// than one future per tile job: the worker that decrements the latch to
// zero advances the phase, so no thread ever blocks waiting on tile
// futures and the whole pipeline is asynchronous end to end. Phase
// continuations enter the queue through JobQueue::push_unbounded (a worker
// blocking on a full queue while every other worker does the same would
// deadlock the pool); only the initial tile fan-out from the submitting
// thread takes the bounded, backpressured push.
//
// Output is bit-identical to sequential AREMSP (8-conn) and CCLREMSP
// (4-conn) for every tile geometry and worker count — the canonical
// first-appearance renumber (BandRenumber, one job per band) restores the
// sequential numbering that 2-D label bases permute (DESIGN.md §5, §8). A
// threshold request fuses the compare into per-tile run extraction, so no
// binary plane is ever materialized. The pipeline reads the request's input
// through its ConstImageView — a strided ROI shards zero-copy exactly like
// a packed raster — and honors the request's OutputSet and label_out like
// any other request: stats requests thread per-tile feature cells through
// the same latch fan-out (DESIGN.md §6), and the resolve job reduces them.
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
