// SlabSession implementation: per-slab scan/merge/flatten over the
// existing run kernels, plus the session-global tracking forest that
// carries component identity across slabs. See slab_session.hpp for the
// dataflow; the invariants each step relies on are restated inline where
// they are used.
#include "stream/slab_session.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "core/equiv_policies.hpp"
#include "core/scan_two_line.hpp"  // NoFeatureSink
#include "core/tiled_phases.hpp"
#include "obs/trace.hpp"
#include "unionfind/rem.hpp"

namespace paremsp::stream {

namespace {

constexpr std::int64_t kNoKey = std::numeric_limits<std::int64_t>::max();

/// FeatureAccumulator twin that shifts rows into GLOBAL coordinates: the
/// scan kernels see slab-local rows, but the fused stats must be
/// bit-identical to one-shot labeling of the concatenated image, whose
/// cells accumulate global rows. Shifting at the accumulation hook keeps
/// the closed-form add_run sums exact (r enters them linearly).
class OffsetFeatureSink {
 public:
  OffsetFeatureSink(std::span<analysis::FeatureCell> cells,
                    Coord row_offset) noexcept
      : cells_(cells), off_(row_offset) {}

  void fresh(Label l) noexcept { cells_[static_cast<std::size_t>(l)] = {}; }
  void add(Label l, Coord r, Coord c) noexcept {
    cells_[static_cast<std::size_t>(l)].add_pixel(r + off_, c);
  }
  void add_run(Label l, Coord r, Coord col_begin, Coord col_end) noexcept {
    cells_[static_cast<std::size_t>(l)].add_run(r + off_, col_begin, col_end);
  }

 private:
  std::span<analysis::FeatureCell> cells_;
  Coord off_;
};

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

Label SlabSession::scan_slab(ConstImageView slab, std::span<Label> parents,
                             std::span<analysis::FeatureCell> cells,
                             RunBuffer& runs) {
  RemEquiv eq(parents);
  if (options_.stats) {
    OffsetFeatureSink sink(cells, global_row_);
    return scan_runs_one_line(slab, runs, eq, sink, options_.connectivity, 0,
                              slab.rows(), 0, options_.cols, cutoff_);
  }
  NoFeatureSink sink;
  return scan_runs_one_line(slab, runs, eq, sink, options_.connectivity, 0,
                            slab.rows(), 0, options_.cols, cutoff_);
}

SlabResult SlabSession::push_slab(ConstImageView slab) {
  PAREMSP_REQUIRE(!finished_,
                  "push_slab on a finished session (finish() was called)");
  PAREMSP_REQUIRE(slab.cols() == options_.cols,
                  "slab width must match StreamOptions::cols");
  PAREMSP_REQUIRE(slab.rows() >= 1, "slab must contain at least one row");
  PAREMSP_REQUIRE(static_cast<std::int64_t>(global_row_) + slab.rows() <=
                      std::numeric_limits<Coord>::max(),
                  "stream height exceeds the Coord range");

  obs::Span span("stream.slab", "stream");

  const Coord rows = slab.rows();
  const Coord cols = options_.cols;
  const std::size_t m = carried_runs_.size();
  const std::size_t label_space =
      static_cast<std::size_t>(slab.size()) + 1 + m;
  PAREMSP_REQUIRE(label_space < (std::size_t{1} << 31),
                  "slab label space must fit in the Label range");

  std::span<Label> parents = scratch_.parents(label_space);
  std::span<analysis::FeatureCell> cells;
  if (options_.stats) cells = scratch_.feature_cells(label_space);
  RunBuffer& runs = scratch_.run_buffers(1)[0];

  // 1. Scan the slab into a fresh forest of `used` provisional labels.
  const Label used = scan_slab(slab, parents, cells, runs);

  // 2. Embed the carried seam runs as reserved slots above the slab's
  // labels and seam-merge them against the first row. REM roots every
  // class at its minimum; the minimum of any class a slot joins is a
  // LOCAL label (slots are the largest indices), so a slot's parent
  // pointer leaves self exactly when its component continues here.
  for (std::size_t j = 0; j < m; ++j) {
    const Label slot = used + 1 + static_cast<Label>(j);
    parents[static_cast<std::size_t>(slot)] = slot;
    carried_runs_[j].label = slot;
  }
  if (m > 0) {
    unite_overlapping_runs(
        std::span<const Run>(runs.row(0)),
        std::span<const Run>(carried_runs_.data(), m), window_,
        [&parents](Label x, Label y) {
          uf::rem_unite(parents.data(), x, y);
        });
  }

  // 3. FLATTEN in one increasing pass (parents point downward), handing
  // out dense local ids 1..local_components to local roots. A carried
  // slot still self-parented CLOSED before this slab — connectivity
  // needs row adjacency, so it can never reappear — and resolves to the
  // background sentinel in the per-slab table.
  Label local_components = 0;
  const Label top = used + static_cast<Label>(m);
  for (Label i = 1; i <= top; ++i) {
    Label& p = parents[static_cast<std::size_t>(i)];
    if (p < i) {
      p = parents[static_cast<std::size_t>(p)];
    } else if (i <= used) {
      p = ++local_components;
    } else {
      p = 0;
    }
  }

  // 4a. Min-fold every run's GLOBAL first-appearance key into its dense
  // id. Per-run, not per-dense-root-at-carry: a slab starting on an odd
  // global row straddles a two-line pair, so a local run can precede the
  // carried seam in visit order — only the min over all runs is safe.
  local_min_key_.assign(static_cast<std::size_t>(local_components) + 1,
                        kNoKey);
  for (Coord r = 0; r < rows; ++r) {
    const std::int64_t global_r = static_cast<std::int64_t>(global_row_) + r;
    for (const Run& run : runs.row(r)) {
      const Label d = parents[static_cast<std::size_t>(run.label)];
      const std::int64_t key = first_appearance_key(global_r, run.col_begin);
      std::int64_t& mk = local_min_key_[static_cast<std::size_t>(d)];
      if (key < mk) mk = key;
    }
  }

  // 4b. Fold the slab into the tracking forest. Two carried runs with
  // DIFFERENT tracks landing on one dense id is this slab uniting two
  // components that were separate at the seam; two dense ids carrying
  // the SAME track root were already one global component — which is why
  // open components are counted by track roots, never local ids.
  dense_track_.assign(static_cast<std::size_t>(local_components) + 1, 0);
  for (std::size_t j = 0; j < m; ++j) {
    const Label d =
        parents[static_cast<std::size_t>(used + 1 + static_cast<Label>(j))];
    if (d == 0) continue;  // closed component, already fully tracked
    const Label t = track_find(carried_tracks_[j]);
    Label& assigned = dense_track_[static_cast<std::size_t>(d)];
    if (assigned == 0) {
      assigned = t;
      continue;
    }
    const Label r = track_find(assigned);
    if (r == t) {
      assigned = r;
      continue;
    }
    // Link the larger root under the smaller: parents keep pointing
    // downward, preserving finish()'s single increasing flatten pass.
    const Label lo = r < t ? r : t;
    const Label hi = r < t ? t : r;
    track_parent_[static_cast<std::size_t>(hi)] = lo;
    assigned = lo;
  }
  for (Label d = 1; d <= local_components; ++d) {
    Label& t = dense_track_[static_cast<std::size_t>(d)];
    if (t == 0) t = track_new();
  }
  dense_root_.assign(static_cast<std::size_t>(local_components) + 1, 0);
  for (Label d = 1; d <= local_components; ++d) {
    dense_root_[static_cast<std::size_t>(d)] =
        track_find(dense_track_[static_cast<std::size_t>(d)]);
  }
  for (Label d = 1; d <= local_components; ++d) {
    const Label root = dense_root_[static_cast<std::size_t>(d)];
    std::int64_t& mk = track_min_key_[static_cast<std::size_t>(root)];
    if (local_min_key_[static_cast<std::size_t>(d)] < mk) {
      mk = local_min_key_[static_cast<std::size_t>(d)];
    }
  }
  if (options_.stats) {
    // Cells are order-independent partial sums, so folding per slab into
    // the CURRENT root is exact: finish() merges roots that unite later.
    for (Label l = 1; l <= used; ++l) {
      const Label d = parents[static_cast<std::size_t>(l)];
      track_cells_[static_cast<std::size_t>(
                       dense_root_[static_cast<std::size_t>(d)])]
          .merge(cells[static_cast<std::size_t>(l)]);
    }
  }

  // 4c. The condensed per-slab remap: dense local id -> track id,
  // O(components) per slab. finish() resolves these to final labels.
  slab_tracks_.emplace_back(
      dense_root_.begin(),
      dense_root_.begin() + static_cast<std::size_t>(local_components) + 1);

  // Expand the runs into the output plane as dense local ids.
  LabelImage plane;
  if (options_.labels) {
    plane = scratch_.acquire_plane(rows, cols, LabelScratch::PlaneInit::Dirty);
    const TileSpec tile{0, rows, 0, cols, 0, used};
    rewrite_run_labels(runs, parents, tile, MutableImageView(plane));
  }

  // 5. The slab's bottom-row runs become the next carried seam.
  const std::span<const Run> bottom = runs.row(rows - 1);
  const std::size_t seam_out = bottom.size();
  carried_runs_.assign(bottom.begin(), bottom.end());
  carried_tracks_.resize(seam_out);
  open_scratch_.clear();
  for (std::size_t i = 0; i < seam_out; ++i) {
    const Label root = dense_root_[static_cast<std::size_t>(
        parents[static_cast<std::size_t>(bottom[i].label)])];
    carried_tracks_[i] = root;
    open_scratch_.push_back(root);
  }
  std::sort(open_scratch_.begin(), open_scratch_.end());
  const auto open = static_cast<Label>(
      std::unique(open_scratch_.begin(), open_scratch_.end()) -
      open_scratch_.begin());

  const std::size_t working =
      label_space * sizeof(Label) +
      (options_.stats ? label_space * sizeof(analysis::FeatureCell) : 0) +
      runs.size() * sizeof(Run) +
      (options_.labels ? static_cast<std::size_t>(slab.size()) * sizeof(Label)
                       : 0) +
      local_min_key_.capacity() * sizeof(std::int64_t) +
      (dense_track_.capacity() + dense_root_.capacity() +
       open_scratch_.capacity()) *
          sizeof(Label);
  slab_working_high_water_ = std::max(slab_working_high_water_, working);

  SlabResult result;
  result.row_begin = global_row_;
  result.rows = rows;
  result.slab_index = slab_index_;
  result.local_components = local_components;
  if (options_.labels) result.labels = std::move(plane);
  result.runs = runs.size();
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
  carried_tracks_.clear();
  carried_tracks_.shrink_to_fit();
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
                      carried_tracks_.capacity() * sizeof(Label) +
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
