// SlabSession implementation: each slab is labeled by the one run
// pipeline (label_runs_impl, paremsp_rle's row-band plan); what stays
// here is the session-global tracking forest that carries component
// identity across slabs. See slab_session.hpp for the dataflow; the
// invariants each step relies on are restated inline where they are used.
#include "stream/slab_session.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "common/env.hpp"
#include "core/rle_labelers.hpp"
#include "obs/trace.hpp"

namespace paremsp::stream {

namespace {

constexpr std::int64_t kNoKey = std::numeric_limits<std::int64_t>::max();

/// Slab pixels per participant of a slab's row-band plan. Smaller slabs
/// run as one band on the calling thread: 256-row slabs of 512 columns
/// are about 50 us of work each, and fanning them out over 4 bands was
/// measured about 3x slower than one band (DESIGN.md §12.1).
constexpr std::int64_t kSlabPixelsPerParticipant = std::int64_t{512} << 10;

/// One participant per kSlabPixelsPerParticipant pixels, at least one
/// and at most one per hardware thread.
int slab_participants(std::int64_t pixels) {
  return static_cast<int>(std::clamp<std::int64_t>(
      pixels / kSlabPixelsPerParticipant, 1, hardware_threads()));
}

/// A slab component's exact sums as a cell in GLOBAL rows: the one-shot
/// cells of the concatenated image accumulate global rows, and shifting
/// every pixel's row by `row_offset` shifts row_sum by area * row_offset
/// exactly.
analysis::FeatureCell global_cell(const analysis::ComponentInfo& info,
                                  Coord row_offset) noexcept {
  return {.area = info.area,
          .row_min = info.bbox.row_min + row_offset,
          .col_min = info.bbox.col_min,
          .row_max = info.bbox.row_max + row_offset,
          .col_max = info.bbox.col_max,
          .row_sum = info.row_sum + info.area * row_offset,
          .col_sum = info.col_sum};
}

}  // namespace

SlabSession::SlabSession(StreamOptions options) : options_(options) {
  PAREMSP_REQUIRE(options_.cols >= 1, "StreamOptions::cols must be >= 1");
  if (options_.threshold.has_value()) {
    PAREMSP_REQUIRE(*options_.threshold >= 0.0 && *options_.threshold <= 1.0,
                    "threshold must be within [0, 1]");
    // Exact integer form of im2bw's compare (see LabelRequest::threshold).
    cutoff_ = static_cast<int>(*options_.threshold * 255.0);
  }
  window_ = run_overlap_window(options_.connectivity);
  // Track id 0 is the background sentinel; live tracks are 1-based.
  track_parent_.push_back(0);
  track_min_key_.push_back(kNoKey);
  if (options_.stats) track_cells_.emplace_back();
}

std::int64_t SlabSession::first_appearance_key(std::int64_t global_r,
                                               Coord col_begin) const
    noexcept {
  const auto cols = static_cast<std::int64_t>(options_.cols);
  if (window_ == 1) {
    // Two-line visit order: row PAIRS (0,1), (2,3), ... are walked left to
    // right, upper row before lower on the same column. Note the pairing
    // is anchored at GLOBAL row 0 — a slab starting on an odd row
    // straddles a pair, which is exactly why keys must be global and
    // min-folded rather than assumed ordered by slab.
    return ((global_r >> 1) * cols + col_begin) * 2 + (global_r & 1);
  }
  // Raster order (4-connectivity's canonical numbering).
  return global_r * cols + col_begin;
}

Label SlabSession::track_find(Label t) const noexcept {
  // Parents point strictly downward (larger roots link under smaller),
  // so the walk terminates; chains stay shallow because every slab
  // re-points its seam runs at current roots.
  while (track_parent_[static_cast<std::size_t>(t)] != t) {
    t = track_parent_[static_cast<std::size_t>(t)];
  }
  return t;
}

Label SlabSession::track_new() {
  const std::size_t next = track_parent_.size();
  PAREMSP_ENSURE(next < (std::size_t{1} << 31),
                 "stream component tracks exceed the Label range");
  const Label t = static_cast<Label>(next);
  track_parent_.push_back(t);
  track_min_key_.push_back(kNoKey);
  if (options_.stats) track_cells_.emplace_back();
  return t;
}

void SlabSession::label(ConstImageView slab, SlabWork& work) const {
  PAREMSP_REQUIRE(slab.cols() == options_.cols,
                  "slab width must match StreamOptions::cols");
  PAREMSP_REQUIRE(slab.rows() >= 1, "slab must contain at least one row");
  PAREMSP_REQUIRE(static_cast<std::size_t>(slab.size()) + 1 <
                      (std::size_t{1} << 31),
                  "slab label space must fit in the Label range");

  obs::Span span("stream.slab", "stream");

  // 1. Label the slab on its own with paremsp_rle's row-band plan, one
  // band per participant: the dense ids 1..local_components are the
  // slab's one-shot canonical labels for any band count. By
  // label_runs_impl's postcondition each band's runs stay in the
  // scratch, each resolving to its dense id through its parent entry.
  RunPlan plan =
      row_band_plan(slab, slab_participants(slab.size()), cutoff_);
  plan.labels = options_.labels;
  LabelResponse labeled =
      label_runs_impl(slab, options_.connectivity, work.scratch,
                      options_.stats ? &work.stats : nullptr, plan);
  work.labels = std::move(labeled.labels);
  work.local_components = labeled.num_components;
  work.rows = slab.rows();
  work.bands = static_cast<std::size_t>((slab.rows() + plan.tile_rows - 1) /
                                        plan.tile_rows);
}

SlabResult SlabSession::fold(SlabWork& work) {
  PAREMSP_REQUIRE(!finished_,
                  "push_slab on a finished session (finish() was called)");
  const Coord rows = work.rows;
  PAREMSP_REQUIRE(static_cast<std::int64_t>(global_row_) + rows <=
                      std::numeric_limits<Coord>::max(),
                  "stream height exceeds the Coord range");

  obs::Span span("stream.fold", "stream");

  const Label local_components = work.local_components;
  const std::size_t label_space =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(options_.cols) +
      1;
  const std::span<const RunBuffer> bands = work.scratch.run_buffers(work.bands);
  const std::span<const Label> dense_of = work.scratch.parents(label_space);
  std::size_t slab_runs = 0;
  for (const RunBuffer& band : bands) slab_runs += band.size();
  const std::size_t m = carried_runs_.size();

  // 2. Unite the seam at track level: every first-row run overlapping a
  // carried run (whose label is its track) ties its dense id to that
  // track. Two carried runs with DIFFERENT tracks landing on one dense id
  // is this slab uniting two components that were separate at the seam;
  // two dense ids carrying the SAME track root were already one global
  // component — which is why open components are counted by track roots,
  // never dense ids.
  dense_track_.assign(static_cast<std::size_t>(local_components) + 1, 0);
  unite_overlapping_runs(
      bands.front().row(0), std::span<const Run>(carried_runs_), window_,
      [this, dense_of](Label run_label, Label carried_track) {
        const Label t = track_find(carried_track);
        Label& assigned = dense_track_[static_cast<std::size_t>(
            dense_of[static_cast<std::size_t>(run_label)])];
        const Label r = assigned == 0 ? t : track_find(assigned);
        // Link the larger root under the smaller: parents keep pointing
        // downward, preserving finish()'s single increasing flatten pass.
        const Label lo = std::min(r, t);
        track_parent_[static_cast<std::size_t>(std::max(r, t))] = lo;
        assigned = lo;
      });
  // Every dense id now names its track ROOT (seam links are done); a
  // dense id no carried run reached opens a fresh track.
  for (Label d = 1; d <= local_components; ++d) {
    Label& t = dense_track_[static_cast<std::size_t>(d)];
    t = t == 0 ? track_new() : track_find(t);
  }
  const auto track_of = [&](const Run& run) {
    return dense_track_[static_cast<std::size_t>(
        dense_of[static_cast<std::size_t>(run.label)])];
  };

  // 3. Min-fold every run's GLOBAL first-appearance key into its track.
  // Per run, not per dense id: a slab starting on an odd global row
  // straddles a two-line pair, so a slab's canonical first run need not
  // be the component's first in the global visit order.
  for (const RunBuffer& band : bands) {
    for (Coord r = band.row_begin(); r < band.row_end(); ++r) {
      const std::int64_t global_r =
          static_cast<std::int64_t>(global_row_) + r;
      for (const Run& run : band.row(r)) {
        std::int64_t& mk =
            track_min_key_[static_cast<std::size_t>(track_of(run))];
        mk = std::min(mk, first_appearance_key(global_r, run.col_begin));
      }
    }
  }
  if (options_.stats) {
    // Cells are order-independent partial sums, so folding per slab into
    // the CURRENT root is exact: finish() merges roots that unite later.
    for (Label d = 1; d <= local_components; ++d) {
      track_cells_[static_cast<std::size_t>(
                       dense_track_[static_cast<std::size_t>(d)])]
          .merge(global_cell(
              work.stats.components[static_cast<std::size_t>(d) - 1],
              global_row_));
    }
  }

  // 4. The condensed per-slab remap: dense id -> track id,
  // O(components) per slab. finish() resolves these to final labels.
  slab_tracks_.emplace_back(
      dense_track_.begin(),
      dense_track_.begin() + static_cast<std::size_t>(local_components) + 1);

  // The slab's bottom-row runs, labeled with their tracks, become the
  // next carried seam.
  const std::span<const Run> bottom = bands.back().row(rows - 1);
  const std::size_t seam_out = bottom.size();
  carried_runs_.assign(bottom.begin(), bottom.end());
  open_scratch_.clear();
  for (Run& run : carried_runs_) {
    run.label = track_of(run);
    open_scratch_.push_back(run.label);
  }
  std::sort(open_scratch_.begin(), open_scratch_.end());
  const auto open = static_cast<Label>(
      std::unique(open_scratch_.begin(), open_scratch_.end()) -
      open_scratch_.begin());

  const std::size_t working =
      label_space * sizeof(Label) +
      (options_.stats
           ? label_space * sizeof(analysis::FeatureCell) +
                 work.stats.components.capacity() *
                     sizeof(analysis::ComponentInfo)
           : 0) +
      slab_runs * sizeof(Run) +
      (options_.labels ? (label_space - 1) * sizeof(Label) : 0) +
      (dense_track_.capacity() + open_scratch_.capacity()) * sizeof(Label);
  work.working_bytes = std::max(work.working_bytes, working);
  slab_working_high_water_ = std::max(slab_working_high_water_, working);

  SlabResult result;
  result.row_begin = global_row_;
  result.rows = rows;
  result.slab_index = slab_index_;
  result.local_components = local_components;
  result.labels = std::move(work.labels);
  result.runs = slab_runs;
  result.carried_in = m;
  result.seam_runs_out = seam_out;
  result.open_components = open;

  global_row_ += rows;
  ++slab_index_;
  return result;
}

StreamResult SlabSession::finish() {
  PAREMSP_REQUIRE(!finished_, "finish() called twice on a stream session");
  finished_ = true;

  obs::Span span("stream.finish", "stream");

  // Flatten the tracking forest in one increasing pass (parents point
  // downward by construction) and fold each absorbed track's key and
  // cell into its final root — each exactly once.
  const auto track_count = static_cast<Label>(track_parent_.size()) - 1;
  for (Label t = 1; t <= track_count; ++t) {
    const Label p = track_parent_[static_cast<std::size_t>(t)];
    if (p == t) continue;
    const Label root = track_parent_[static_cast<std::size_t>(p)];  // final
    track_parent_[static_cast<std::size_t>(t)] = root;
    if (track_min_key_[static_cast<std::size_t>(t)] <
        track_min_key_[static_cast<std::size_t>(root)]) {
      track_min_key_[static_cast<std::size_t>(root)] =
          track_min_key_[static_cast<std::size_t>(t)];
    }
    if (options_.stats) {
      track_cells_[static_cast<std::size_t>(root)].merge(
          track_cells_[static_cast<std::size_t>(t)]);
    }
  }

  // Rank live tracks by global first appearance — the one-shot canonical
  // order of the concatenated image. Keys encode (visit step, column,
  // row parity), so two components can never share one.
  std::vector<std::pair<std::int64_t, Label>> order;
  order.reserve(static_cast<std::size_t>(track_count));
  for (Label t = 1; t <= track_count; ++t) {
    if (track_parent_[static_cast<std::size_t>(t)] == t) {
      order.emplace_back(track_min_key_[static_cast<std::size_t>(t)], t);
    }
  }
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    PAREMSP_ENSURE(order[i].first != kNoKey,
                   "live component track with no recorded first appearance");
    PAREMSP_ENSURE(i == 0 || order[i - 1].first < order[i].first,
                   "two component tracks share a first-appearance key");
  }

  std::vector<Label> final_of(static_cast<std::size_t>(track_count) + 1, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    final_of[static_cast<std::size_t>(order[i].second)] =
        static_cast<Label>(i + 1);
  }
  for (Label t = 1; t <= track_count; ++t) {
    const Label p = track_parent_[static_cast<std::size_t>(t)];
    if (p != t) {
      final_of[static_cast<std::size_t>(t)] =
          final_of[static_cast<std::size_t>(p)];
    }
  }

  StreamResult out;
  out.num_components = static_cast<Label>(order.size());
  out.rows = global_row_;
  out.slabs = slab_index_;
  out.slab_remaps = std::move(slab_tracks_);
  for (std::vector<Label>& table : out.slab_remaps) {
    for (Label& v : table) {
      v = v == 0 ? 0 : final_of[static_cast<std::size_t>(v)];
    }
  }

  if (options_.stats) {
    analysis::ComponentStats stats;
    stats.components.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const analysis::FeatureCell& cell =
          track_cells_[static_cast<std::size_t>(order[i].second)];
      analysis::ComponentInfo& info = stats.components[i];
      info.area = cell.area;
      info.bbox = analysis::BoundingBox{cell.row_min, cell.col_min,
                                        cell.row_max, cell.col_max};
      info.row_sum = cell.row_sum;
      info.col_sum = cell.col_sum;
    }
    analysis::finalize_components(stats.components);
    out.stats = std::move(stats);
  }

  // Release the seam state: the session keeps only its scratch pools
  // (harmless — callers usually destroy it right after).
  carried_runs_.clear();
  carried_runs_.shrink_to_fit();
  track_parent_.clear();
  track_parent_.shrink_to_fit();
  track_min_key_.clear();
  track_min_key_.shrink_to_fit();
  track_cells_.clear();
  track_cells_.shrink_to_fit();
  slab_tracks_.clear();
  slab_tracks_.shrink_to_fit();
  return out;
}

std::size_t SlabSession::seam_state_bytes() const noexcept {
  std::size_t bytes = carried_runs_.capacity() * sizeof(Run) +
                      track_parent_.capacity() * sizeof(Label) +
                      track_min_key_.capacity() * sizeof(std::int64_t) +
                      track_cells_.capacity() * sizeof(analysis::FeatureCell);
  bytes += slab_tracks_.capacity() * sizeof(std::vector<Label>);
  for (const std::vector<Label>& table : slab_tracks_) {
    bytes += table.capacity() * sizeof(Label);
  }
  return bytes;
}

}  // namespace paremsp::stream
