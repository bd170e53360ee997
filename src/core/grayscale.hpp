// Grayscale (multi-level) connected component labeling — the extension the
// paper sketches in §V: "our algorithm can be easily extended to gray
// scale images".
//
// Two pixels are connected iff they are adjacent AND have equal gray
// values. There is no background: every pixel belongs to a component, and
// labels are consecutive 1..n. Implemented as a two-pass scan with REM's
// union-find, i.e. the same machinery as CCLREMSP generalized from a
// {0,1} equality predicate to a 256-level one.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

/// Result of a grayscale labeling (labels cover every pixel).
struct GrayLabeling {
  LabelImage labels;
  Label num_components = 0;
};

/// Label all equal-valued connected regions of a grayscale image.
[[nodiscard]] GrayLabeling label_grayscale(
    const GrayImage& image, Connectivity connectivity = Connectivity::Eight);

}  // namespace paremsp
