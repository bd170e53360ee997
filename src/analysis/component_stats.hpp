// Per-component measurements over a label image.
//
// Downstream pattern-recognition stages (the paper's motivation: character
// recognition, medical imaging, target recognition) consume exactly these
// quantities; the example applications use them, and the tests use them to
// cross-check labelers beyond raw label equality.
#pragma once

#include <vector>

#include "image/raster.hpp"

namespace paremsp::analysis {

/// Axis-aligned bounding box (inclusive coordinates).
struct BoundingBox {
  Coord row_min = 0;
  Coord col_min = 0;
  Coord row_max = -1;
  Coord col_max = -1;

  [[nodiscard]] Coord height() const noexcept { return row_max - row_min + 1; }
  [[nodiscard]] Coord width() const noexcept { return col_max - col_min + 1; }
  friend bool operator==(const BoundingBox&, const BoundingBox&) = default;
};

/// Measurements for one connected component. The centroid is carried both
/// as exact integer coordinate sums (order-independent, safe to compare
/// bit-for-bit across labeling strategies) and as the derived means
/// (row_sum / area); every producer — the post-pass compute_stats and the
/// fused stats-request paths — computes the doubles from the sums, so
/// equal sums guarantee equal centroids.
struct ComponentInfo {
  Label label = 0;
  std::int64_t area = 0;       // pixel count
  BoundingBox bbox;
  std::int64_t row_sum = 0;    // exact centroid numerators
  std::int64_t col_sum = 0;
  double centroid_row = 0.0;   // row_sum / area
  double centroid_col = 0.0;   // col_sum / area
  friend bool operator==(const ComponentInfo&, const ComponentInfo&) = default;
};

/// Aggregate statistics over all components of a labeling.
struct ComponentStats {
  std::vector<ComponentInfo> components;  // indexed by label-1

  [[nodiscard]] Label count() const noexcept {
    return static_cast<Label>(components.size());
  }
  [[nodiscard]] std::int64_t total_foreground() const noexcept;
  [[nodiscard]] std::int64_t largest_area() const noexcept;
  [[nodiscard]] double mean_area() const noexcept;
};

/// Measure every component of `labels`. Requires consecutive labels
/// 1..num_components (what every labeler in this library produces);
/// throws PreconditionError on a label outside [0, num_components].
[[nodiscard]] ComponentStats compute_stats(const LabelImage& labels,
                                           Label num_components);

/// Histogram of component areas with logarithmic (power-of-two) bins:
/// bin k counts components with area in [2^k, 2^(k+1)).
[[nodiscard]] std::vector<std::int64_t> area_histogram(
    const ComponentStats& stats);

}  // namespace paremsp::analysis
