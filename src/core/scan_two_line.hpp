// Two-lines-at-a-time scan with the ARUN mask (paper Algorithm 6).
//
// Forward scan mask (paper Figure 1b) for the pixel pair e = (r, c) and
// g = (r+1, c):
//
//        a b c        a=(r-1,c-1)  b=(r-1,c)  c=(r-1,c+1)
//        d e          d=(r,  c-1)  e=(r,  c)
//        f g          f=(r+1,c-1)  g=(r+1,c)
//
// Rows are processed in pairs (r, r+1), labeling e and g in one visit, so
// the scan touches half the image lines (He et al. 2012). The case
// analysis exploits transitivity established by earlier visits (e.g. when
// d is foreground, a/b were already connected to d while scanning column
// c-1), so at most one merge is recorded per pixel pair.
//
// The kernel scans the half-open row range [row_begin, row_end) and treats
// anything outside as background. PAREMSP (Algorithm 7) relies on this:
// each thread scans its own chunk with row_begin at the chunk start, and
// the suppressed cross-boundary adjacencies are re-established later by
// the parallel boundary merge. Chunks always start on even rows, so the
// pair alignment is identical for every thread count.
//
// Only 8-connectivity: the mask is inherently 8-connected.
//
// The kernel reads pixels through a ConstImageView and writes labels
// through a MutableImageView (image/view.hpp): row pitch is a per-view
// runtime stride, so packed rasters, ROI subviews and caller-owned padded
// buffers all scan through the one instantiation, zero-copy. Rasters
// convert to views implicitly (pitch == cols), so call sites are unchanged.
#pragma once

#include "core/equiv_policies.hpp"
#include "image/view.hpp"

namespace paremsp {

/// No-op feature sink: the default accumulation policy. Stateless empty
/// inline calls, so the plain labeling instantiations compile to exactly
/// the pre-fusion kernel. The fused-stats paths pass
/// analysis::FeatureAccumulator instead (analysis/feature_accumulator.hpp).
struct NoFeatureSink {
  void fresh(Label) noexcept {}
  void add(Label, Coord, Coord) noexcept {}
  void add_run(Label, Coord, Coord, Coord) noexcept {}
};

/// Scan Phase of AREMSP/ARUN (paper Algorithm 6) over the full-width row
/// band [row_begin, row_end); rows outside the band count as background
/// (row chunking for PAREMSP). Returns the number of provisional labels
/// issued through `eq` (eq.used()).
///
/// `sink` observes the labeling as it happens — sink.fresh(l) at every
/// new-label event, then sink.add(l, r, c) once per labeled pixel — which
/// is what fuses component analysis into the scan: features accumulate
/// while the pixel is already in registers, instead of a second full read
/// of the label plane afterwards.
template <class Equiv, class FeatureSink>
Label scan_two_line(ConstImageView image, MutableImageView labels, Equiv& eq,
                    FeatureSink& sink, Coord row_begin, Coord row_end) {
  const Coord cols = image.cols();
  for (Coord r = row_begin; r < row_end; r += 2) {
    const bool has_down = r + 1 < row_end;   // odd trailing row has no g/f
    const bool has_up = r > row_begin;       // chunk top: above is masked
    for (Coord c = 0; c < cols; ++c) {
      const bool fg_e = image(r, c) != 0;
      const bool fg_g = has_down && image(r + 1, c) != 0;

      if (fg_e) {
        const bool fg_d = c > 0 && image(r, c - 1) != 0;
        if (!fg_d) {
          const bool fg_b = has_up && image(r - 1, c) != 0;
          const bool fg_f = has_down && c > 0 && image(r + 1, c - 1) != 0;
          const bool fg_a = has_up && c > 0 && image(r - 1, c - 1) != 0;
          const bool fg_c = has_up && c + 1 < cols && image(r - 1, c + 1) != 0;
          if (fg_b) {
            labels(r, c) = labels(r - 1, c);
            if (fg_f) eq.merge(labels(r, c), labels(r + 1, c - 1));
          } else if (fg_f) {
            labels(r, c) = labels(r + 1, c - 1);
            if (fg_a) eq.merge(labels(r, c), labels(r - 1, c - 1));
            if (fg_c) eq.merge(labels(r, c), labels(r - 1, c + 1));
          } else if (fg_a) {
            labels(r, c) = labels(r - 1, c - 1);
            if (fg_c) eq.merge(labels(r, c), labels(r - 1, c + 1));
          } else if (fg_c) {
            labels(r, c) = labels(r - 1, c + 1);
          } else {
            labels(r, c) = eq.new_label();
            sink.fresh(labels(r, c));
          }
        } else {
          // d foreground: e continues d's run; only the c-diagonal can
          // introduce a new equivalence (a and b are already transitively
          // connected to d from the previous column's visit).
          labels(r, c) = labels(r, c - 1);
          const bool fg_b = has_up && image(r - 1, c) != 0;
          if (!fg_b) {
            const bool fg_c =
                has_up && c + 1 < cols && image(r - 1, c + 1) != 0;
            if (fg_c) eq.merge(labels(r, c), labels(r - 1, c + 1));
          }
        }
        if (fg_g) labels(r + 1, c) = labels(r, c);
      } else if (fg_g) {
        // e background: g's already-visited neighbors are d (diagonal) and
        // f (left); d-f are vertically adjacent, hence already merged.
        const bool fg_d = c > 0 && image(r, c - 1) != 0;
        const bool fg_f = c > 0 && image(r + 1, c - 1) != 0;
        if (fg_d) {
          labels(r + 1, c) = labels(r, c - 1);
        } else if (fg_f) {
          labels(r + 1, c) = labels(r + 1, c - 1);
        } else {
          labels(r + 1, c) = eq.new_label();
          sink.fresh(labels(r + 1, c));
        }
      }

      if (fg_e) sink.add(labels(r, c), r, c);
      if (fg_g) sink.add(labels(r + 1, c), r + 1, c);  // fg_g implies has_down
      if (!fg_e) labels(r, c) = 0;
      if (has_down && !fg_g) labels(r + 1, c) = 0;
    }
  }
  return eq.used();
}

/// Overload without feature accumulation (plain labeling).
template <class Equiv>
Label scan_two_line(ConstImageView image, MutableImageView labels, Equiv& eq,
                    Coord row_begin, Coord row_end) {
  NoFeatureSink sink;
  return scan_two_line(image, labels, eq, sink, row_begin, row_end);
}

}  // namespace paremsp
