// Run-based (RLE) labelers — sequential and parallel AREMSP over runs.
//
// All three compose the same run-based phases from core/tiled_phases.hpp
// over a tile grid; they differ only in how the grid is cut and how the
// phases are scheduled:
//
//   aremsp_rle   one tile (the whole image), sequential — the run twin of
//                sequential AREMSP;
//   paremsp_rle  full-width row bands, about one per thread, boundary RUNS
//                merged by Algorithm 8 — the run twin of PAREMSP;
//   paremsp2d    a 2-D tile grid with run seam merges on both axes — the
//                2-D extension of PAREMSP's Algorithm 7.
//
// All three are presets of one entry, label_runs_impl, which the engine's
// sharded requests call too (with the request's grid, the engine's worker
// count, and a QoS hook between phases), and which labels every stream
// slab (stream/slab_session.cpp) through paremsp_rle's row-band plan,
// row_band_plan, with participants taken from the slab's size.
//
// The pipeline per tile: RowBits packs each row into 64-pixel words, runs
// are emitted by ctz/popcount word scanning, each run records ONE
// equivalence per overlapping previous-row run pair (union-find traffic
// scales with run pairs, not pixels), and after FLATTEN + the canonical
// run renumber the resolved labels expand back to the raster with
// std::fill-width segments — the output plane is written exactly once,
// where the pixel algorithms write provisional labels and then rewrite.
//
// Bit-identity: the canonical renumber (BandRenumber, core/tiled_phases)
// restores the sequential first-appearance numbering, so all three are
// bit-identical to AremspLabeler (8-connectivity) and CclremspLabeler
// (4-connectivity) for every thread count and tile geometry. Unlike
// AREMSP and PAREMSP they support both connectivities: the run overlap
// window is the only place connectivity enters.
#pragma once

#include <functional>
#include <optional>

#include "core/labeling.hpp"
#include "image/view.hpp"

namespace paremsp {

/// How label_runs_impl cuts and runs one image.
struct RunPlan {
  /// Tile grid (core/tiled_phases.hpp); any size >= 1, oversize tiles
  /// clamp to the image.
  Coord tile_rows;
  Coord tile_cols;
  /// Participants of every phase loop (common/executor.hpp); 1 runs the
  /// whole pipeline on the calling thread.
  int threads;
  /// >= 0 scans a GRAYSCALE image through the fused pixel > threshold
  /// encoder; -1 is the plain binary mode.
  int threshold = -1;
  /// False skips the label plane and the rewrite phase: no plane is
  /// acquired and label_out is not written (count- and stats-only
  /// callers).
  bool labels = true;
  /// When set, the rewrite writes the final labels here (may be strided)
  /// and the response carries no plane.
  std::optional<MutableImageView> label_out = std::nullopt;
  /// Called after the scan, merge and flatten phases, when no piece of
  /// the pipeline is running; throwing from it abandons the request.
  std::function<void()> between_phases = nullptr;
};

/// The one run-based pipeline: cut the plan's tile grid, scan runs per
/// tile, merge boundary runs, resolve + canonically renumber
/// (BandRenumber), and expand the resolved labels into the output — the
/// only write to it. Bit-identical to sequential AREMSP (8-conn) and
/// CCLREMSP (4-conn) for every grid and thread count.
///
/// Postcondition, for callers that read the runs themselves: with n the
/// number of tiles of the plan's grid (row-major), scratch.run_buffers(n)[t]
/// holds tile t's runs, and scratch.parents(image.size() + 1)[run.label]
/// is each run's final label, until the scratch is used again.
[[nodiscard]] LabelResponse label_runs_impl(ConstImageView image,
                                            Connectivity connectivity,
                                            LabelScratch& scratch,
                                            analysis::ComponentStats* stats,
                                            const RunPlan& plan);

/// paremsp_rle's plan: full-width row bands, about one per participant.
/// `threads` (>= 1) is clamped to the row count; bands are rounded UP to
/// an even height, so every band starts on an even row — the 8-connected
/// scan's pair order then aligns with the global two-line pairing and
/// the canonical renumber walks labels (BandRenumber). Band b's runs sit
/// in scratch.run_buffers(bands)[b], bands = ceil(rows / tile_rows).
/// `threads` = 1 is aremsp_rle's plan: the whole image as one tile (no
/// seams) on the calling thread.
[[nodiscard]] RunPlan row_band_plan(ConstImageView image, int threads,
                                    int threshold = -1);

/// Shared tuning knobs of the parallel rle labelers.
struct RleConfig {
  /// Worker threads; 0 means every hardware thread.
  int threads = 0;
  /// Tile height in rows (paremsp2d; paremsp_rle derives its row bands
  /// from `threads` instead). Any value >= 1, down to single-pixel tiles
  /// — the canonical renumber keeps the output identical regardless.
  Coord tile_rows = 256;
  /// Tile width in columns (paremsp2d only). Minimum 1.
  Coord tile_cols = 256;
};

/// Sequential run-based AREMSP. Supports both connectivities.
class AremspRleLabeler final : public Labeler {
 public:
  explicit AremspRleLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::AremspRle, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "aremsp_rle";
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
  [[nodiscard]] LabelResponse run_gray_impl(ConstImageView gray,
                                            std::uint8_t cutoff,
                                            Connectivity connectivity,
                                            LabelScratch& scratch,
                                            analysis::ComponentStats* stats)
      const override;
};

/// Row-banded parallel run-based PAREMSP.
class ParemspRleLabeler final : public Labeler {
 public:
  explicit ParemspRleLabeler(RleConfig config = {},
                             Connectivity connectivity = Connectivity::Eight);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "paremsp_rle";
  }
  [[nodiscard]] bool is_parallel() const noexcept override { return true; }

  [[nodiscard]] const RleConfig& config() const noexcept { return config_; }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
  [[nodiscard]] LabelResponse run_gray_impl(ConstImageView gray,
                                            std::uint8_t cutoff,
                                            Connectivity connectivity,
                                            LabelScratch& scratch,
                                            analysis::ComponentStats* stats)
      const override;

 private:
  RleConfig config_;
};

/// 2-D tiled parallel PAREMSP over runs.
class TiledParemspLabeler final : public Labeler {
 public:
  explicit TiledParemspLabeler(RleConfig config = {},
                               Connectivity connectivity = Connectivity::Eight);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "paremsp2d";
  }
  [[nodiscard]] bool is_parallel() const noexcept override { return true; }

  [[nodiscard]] const RleConfig& config() const noexcept { return config_; }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
  [[nodiscard]] LabelResponse run_gray_impl(ConstImageView gray,
                                            std::uint8_t cutoff,
                                            Connectivity connectivity,
                                            LabelScratch& scratch,
                                            analysis::ComponentStats* stats)
      const override;

 private:
  RleConfig config_;
};

}  // namespace paremsp
