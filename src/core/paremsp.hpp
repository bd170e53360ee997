// PAREMSP — the paper's parallel two-pass CCL algorithm (§IV, Algorithm 7).
//
// The image is divided row-wise into one chunk of two-row iterations per
// thread. Phase I runs the AREMSP scan on every chunk concurrently, with
// per-chunk label bases (first_row * cols) so label ranges never collide.
// Phase II re-establishes the equivalences suppressed at chunk boundaries
// by running the parallel REM merger (Algorithm 8) over each chunk's top
// row against the row above it. FLATTEN then assigns consecutive final
// labels, and a parallel pass rewrites the label plane.
//
// The final labeling is identical for every thread count (and identical to
// sequential AREMSP): component roots are provisional-label *minima* under
// REM, and the relative order of component minima is invariant under
// chunking (see DESIGN.md §3); the test suite asserts this bit-for-bit.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

/// PAREMSP tuning knobs.
struct ParemspConfig {
  /// Worker threads; 0 means every hardware thread (hardware_threads()).
  int threads = 0;
};

/// PAREMSP labeler (8-connectivity, like the paper).
class ParemspLabeler final : public Labeler {
 public:
  explicit ParemspLabeler(ParemspConfig config = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "paremsp";
  }
  [[nodiscard]] bool is_parallel() const noexcept override { return true; }

  [[nodiscard]] const ParemspConfig& config() const noexcept {
    return config_;
  }

 protected:
  /// Fused component analysis when `stats` is requested: each chunk
  /// accumulates features during its local scan (disjoint cell ranges, no
  /// synchronization), and the per-chunk cells reduce through FLATTEN.
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;

 private:
  ParemspConfig config_;
};

}  // namespace paremsp
