// Streaming slab labeling: label an arbitrarily tall image one row-band
// SLAB at a time, carrying only seam state between slabs.
//
// The sharded tile pipeline (engine/sharded_labeler.hpp) already proves
// the key property this subsystem rests on: tiles communicate component
// identity through nothing but their boundary runs. A horizontal cut
// through the image is exactly one such boundary — so a session that
// remembers (a) the runs of the last row pushed, (b) which GLOBAL
// component each of those runs currently belongs to, and (c) a running
// FeatureCell per still-open component, can label slab k+1 without any
// pixel of slabs 0..k being resident. That is the entire cross-slab
// state; everything else (parents, run buffers, planes) is per-slab
// scratch reused across pushes.
//
//   SlabSession session(options);           // options.cols fixes the width
//   while (more rows) {
//     SlabResult r = session.push_slab(view);   // any height >= 1
//     // r.labels holds LOCAL dense ids 1..r.local_components
//     session.recycle(std::move(r.labels));     // optional: keep pool warm
//   }
//   StreamResult done = session.finish();
//   // done.slab_remaps[k][local id] = final global label for slab k
//
// Consistency contract (proved by tests/test_stream.cpp differentially
// against one-shot AremspRle over slab-height sweeps including 1-row
// slabs and both connectivities): the final component
// COUNT, the per-component stats (bit-identical FeatureCell sums), and
// the composed labeling remap[k][slab k's plane] all equal one-shot
// labeling of the vertically concatenated image. Final label order is
// the same canonical order the one-shot labelers use — first appearance
// in the sequential visit order of the whole image (two-line row-pair
// order for 8-connectivity, raster order for 4) — recovered from a
// 64-bit first-appearance key folded per component as slabs stream by,
// so the numbering does not depend on where the cuts fall.
//
// How a slab is processed — two steps. label() (step 1) writes only a
// per-slab work area (SlabWork) and reads only the session's options, so
// several slabs may be labeled at once; fold() (steps 2-4) updates the
// session and runs strictly in slab order. push_slab is label + fold on
// the session's own work area; engine/stream_session.hpp labels up to
// its window of slabs at once, each in its own work area, and folds them
// in order. Each slab's pipeline fans out over the caller's pool, the
// engine's workers when called from the engine:
//
//   1. label the slab on its own through the one run pipeline
//      (label_runs_impl with paremsp_rle's row-band plan,
//      core/rle_labelers.hpp): one band per participant, one participant
//      per 512 Ki pixels up to the hardware threads, so small slabs stay
//      one band on the calling thread. The dense ids 1..local_components
//      are the slab's own one-shot canonical labels for any band count,
//      and the slab's runs with their dense ids stay in the work area's
//      scratch;
//   2. unite the seam at track level: every first-row run overlapping
//      a carried seam run (unite_overlapping_runs — the same
//      one-union-per-overlapping-pair sweep the tile seams use) ties
//      its dense id to the carried run's track, linking tracks when one
//      dense id reaches several. Dense ids no carried run reaches open
//      fresh tracks; a carried component no first-row run reaches has
//      simply closed (row adjacency means it can never reappear);
//   3. fold the slab into the session-global tracking forest: per-run
//      global first-appearance keys min-fold into each track, and the
//      slab's per-component stats (rows shifted to global) merge into
//      each track's FeatureCell;
//   4. the slab's bottom-row runs, labeled with their track ids, become
//      the next carried seam; a per-slab table dense id -> track id is
//      appended (the "condensed parent remap" — O(components), not
//      O(pixels)).
//
// finish() flattens the tracking forest, ranks live tracks by their
// global first-appearance key to assign final labels 1..K, resolves the
// per-slab tables to final labels, and finalizes stats.
//
// Memory: steady-state pushes allocate nothing (a work area's
// LabelScratch pools the parent/cell/run/plane storage; the track arrays
// grow by components, not pixels). seam_state_bytes() +
// slab_working_bytes() is the resident footprint of push_slab;
// tests/test_stream.cpp holds it below the one-shot working set once an
// image spans at least four slabs. Each work area labeling a slab in
// flight adds at most one more slab_working_bytes().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/feature_accumulator.hpp"
#include "core/label_scratch.hpp"
#include "core/runs.hpp"
#include "image/connectivity.hpp"
#include "image/raster.hpp"
#include "image/view.hpp"

namespace paremsp::stream {

/// Session-wide configuration, fixed at construction (a stream's slabs
/// must agree on width, connectivity, threshold and outputs — per-slab
/// overrides would make "the concatenated image" ill-defined).
struct StreamOptions {
  /// Width every pushed slab must match. Required >= 1.
  Coord cols = 0;

  Connectivity connectivity = Connectivity::Eight;

  /// Grayscale fusion, same contract as LabelRequest::threshold: slabs
  /// are grayscale and foreground is pixel > floor(threshold * 255).
  /// Must be within [0, 1].
  std::optional<double> threshold;

  /// Return each slab's label plane from push_slab (local dense ids).
  /// Off = counting/measuring stream: no plane is materialized at all.
  bool labels = true;

  /// Accumulate fused per-component features across the stream;
  /// finish() then carries ComponentStats bit-identical to one-shot
  /// fused labeling of the concatenated image.
  bool stats = false;
};

/// Outcome of one push_slab call.
struct SlabResult {
  /// Global row index of the slab's first row (rows pushed before it).
  Coord row_begin = 0;
  /// Rows in this slab.
  Coord rows = 0;
  /// Position of the slab in the stream (0-based push order).
  std::size_t slab_index = 0;

  /// Components of the slab taken alone, numbered 1..local_components
  /// exactly as one-shot aremsp_rle labels the slab by itself. LOCAL
  /// ids: one global component may own several of them (joined through
  /// rows outside the slab), and reappearing in a later slab it gets
  /// unrelated ids there; finish()'s per-slab tables reconcile them.
  Label local_components = 0;

  /// The slab's label plane with local dense ids (engaged storage iff
  /// StreamOptions::labels). Hand it back via recycle() when done.
  LabelImage labels;

  /// Foreground runs extracted from the slab.
  std::uint64_t runs = 0;
  /// Seam runs carried INTO this slab from the previous one.
  std::uint64_t carried_in = 0;
  /// Seam runs this slab hands to the next one (its bottom-row runs).
  std::uint64_t seam_runs_out = 0;
  /// Distinct still-open components those seam runs belong to. Strictly
  /// fewer than seam_runs_out when one component owns several bottom
  /// runs — and distinct LOCAL ids can already be one GLOBAL component
  /// through a union in an earlier slab, which is why this counts track
  /// roots, not local ids.
  Label open_components = 0;
};

/// Outcome of finish(): the global resolution of every slab.
struct StreamResult {
  /// Global components across the whole stream; final labels are 1..K
  /// in the one-shot canonical order of the concatenated image.
  Label num_components = 0;
  /// Total rows consumed.
  Coord rows = 0;
  /// Slabs pushed.
  std::size_t slabs = 0;

  /// Per-slab resolution tables: slab_remaps[k][local dense id] = final
  /// global label (entry 0 = 0 for background). Composing table k over
  /// slab k's plane yields exactly the one-shot labeling restricted to
  /// those rows.
  std::vector<std::vector<Label>> slab_remaps;

  /// Fused per-component features, ordered by final label; engaged iff
  /// StreamOptions::stats.
  std::optional<analysis::ComponentStats> stats;
};

/// Everything labeling one slab writes (SlabSession::label): the slab's
/// own scratch, stats and plane. fold() reads it back; the session owns
/// one for push_slab, and the engine keeps one per slab in flight.
struct SlabWork {
  LabelScratch scratch;           // parents, cells, band runs, planes
  analysis::ComponentStats stats;  // per-component sums (stats only)
  LabelImage labels;              // local dense ids (labels only)
  Label local_components = 0;
  Coord rows = 0;
  /// Band count of the slab's row-band plan: its runs sit in
  /// scratch.run_buffers(bands).
  std::size_t bands = 0;
  /// High-water working bytes of the slabs folded from this area (the
  /// per-area share of SlabSession::slab_working_bytes()).
  std::size_t working_bytes = 0;
};

/// One streaming labeling session. Not thread-safe, except that label()
/// only reads the options: fold/push_slab/finish must be externally
/// serialized and fold()s issued in slab order (the engine's
/// StreamSession does this while labeling later slabs of the window
/// across workers). A slab of at least 1 Mi pixels is labeled across the
/// caller's pool.
class SlabSession {
 public:
  /// Validates options (cols >= 1, threshold within [0, 1]) — throws
  /// PreconditionError otherwise.
  explicit SlabSession(StreamOptions options);

  SlabSession(const SlabSession&) = delete;
  SlabSession& operator=(const SlabSession&) = delete;

  /// Label the next `slab.rows()` rows of the stream: label() then
  /// fold() on the session's own work area. The view must match
  /// options().cols and have >= 1 row; throws PreconditionError on
  /// mismatch or when the session is already finished.
  SlabResult push_slab(ConstImageView slab) {
    label(slab, work_);
    return fold(work_);
  }

  /// Step 1 of a push: label `slab` by itself into `work`, whose previous
  /// slab must already be folded. Reads only the session's options and
  /// touches no session state, so label() calls on different work areas
  /// may run at once and alongside fold(). Throws PreconditionError when
  /// the view does not match options().cols or has no row.
  void label(ConstImageView slab, SlabWork& work) const;

  /// Step 2: fold a labeled work area into the session as its next slab —
  /// seam unite, track assignment, key and cell folds, carried runs — and
  /// hand the slab's plane over to the result. Work areas must be folded
  /// in the order their slabs stand in the stream. Throws
  /// PreconditionError when the session is already finished.
  SlabResult fold(SlabWork& work);

  /// Resolve the stream: assign final global labels, produce the
  /// per-slab remap tables and (optionally) fused stats, and release
  /// the seam state. Exactly-once: a second call (or a later
  /// push_slab) throws PreconditionError.
  StreamResult finish();

  /// Return a slab plane for reuse by the next push_slab.
  void recycle(LabelImage&& plane) {
    work_.scratch.recycle_plane(std::move(plane));
  }

  [[nodiscard]] const StreamOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] Coord rows_consumed() const noexcept { return global_row_; }
  [[nodiscard]] std::size_t slabs_pushed() const noexcept {
    return slab_index_;
  }
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Bytes of CROSS-SLAB state currently held: the carried seam runs,
  /// the tracking forest (parent + first-appearance key per track, plus
  /// a FeatureCell per track when stats are on), and the per-slab
  /// remap tables. This — not the image — is what grows with stream
  /// height, and it grows with COMPONENTS, not pixels.
  [[nodiscard]] std::size_t seam_state_bytes() const noexcept;

  /// High-water bytes of per-slab scratch (parents, cells, stats, every
  /// band's run buffer, planes) across the slabs folded so far.
  /// seam_state_bytes() + this is push_slab's resident footprint; each
  /// work area keeps its own share in SlabWork::working_bytes.
  [[nodiscard]] std::size_t slab_working_bytes() const noexcept {
    return slab_working_high_water_;
  }

 private:
  /// 64-bit first-appearance rank of a run at global row `global_r`:
  /// lexicographic (visit step, column, row-within-pair) under the
  /// canonical visit order — two-line row pairs for window 1, raster
  /// for window 0. The minimum over a component's runs is the
  /// component's first appearance in the one-shot sequential scan.
  [[nodiscard]] std::int64_t first_appearance_key(std::int64_t global_r,
                                                  Coord col_begin) const
      noexcept;

  [[nodiscard]] Label track_find(Label t) const noexcept;
  /// Allocate a fresh track id (parent = self, key = +inf, empty cell).
  [[nodiscard]] Label track_new();

  StreamOptions options_;
  Coord window_ = 1;   // run_overlap_window(connectivity)
  int cutoff_ = -1;    // integer threshold cutoff; -1 = binary input
  bool finished_ = false;
  Coord global_row_ = 0;      // rows consumed so far
  std::size_t slab_index_ = 0;

  SlabWork work_;  // push_slab's work area (pooled scratch)

  // ---- Seam state carried between slabs --------------------------------
  // Bottom-row runs of the last slab; each run's label is its track.
  std::vector<Run> carried_runs_;
  // Tracking union-find over session-global components, 1-based,
  // append-only. Unites link the larger root under the smaller, so
  // parents always point downward and finish() flattens in one
  // increasing pass.
  std::vector<Label> track_parent_;
  std::vector<std::int64_t> track_min_key_;         // at roots
  std::vector<analysis::FeatureCell> track_cells_;  // at roots (stats only)
  // Per-slab condensed remap: dense local id -> track id ([0] = 0).
  std::vector<std::vector<Label>> slab_tracks_;

  // ---- Per-slab scratch (members only to stay allocation-free) ---------
  std::vector<Label> dense_track_;  // dense id -> track root ([0] = 0)
  std::vector<Label> open_scratch_;

  std::size_t slab_working_high_water_ = 0;
};

}  // namespace paremsp::stream
