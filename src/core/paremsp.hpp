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

/// Which scan kernel each chunk runs in Phase I. The paper uses the
/// two-line ARUN mask; the one-line decision tree is provided for the
/// scan-strategy ablation (a "parallel CCLREMSP").
enum class ScanStrategy {
  TwoLine,  // AREMSP scan (paper Algorithm 6) — the default
  OneLine,  // CCLREMSP scan (paper Algorithm 4)
};

[[nodiscard]] constexpr const char* to_string(ScanStrategy s) noexcept {
  return s == ScanStrategy::TwoLine ? "two-line" : "one-line";
}

/// PAREMSP tuning knobs.
struct ParemspConfig {
  /// Worker threads; 0 means every hardware thread (hardware_threads()).
  int threads = 0;
  /// Phase-I scan kernel.
  ScanStrategy scan = ScanStrategy::TwoLine;
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
  /// Fused component analysis for the two-line scan strategy when `stats`
  /// is requested: each chunk accumulates features during its local scan
  /// (disjoint cell ranges, no synchronization), and the per-chunk cells
  /// reduce through FLATTEN. The one-line ablation strategy falls back to
  /// the generic post-pass.
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;

 private:
  /// Shared chunked-scan body; when `stats` is non-null the two-line chunk
  /// scans run with the feature sink fused in and the accumulated cells
  /// reduce through FLATTEN into `stats`.
  [[nodiscard]] LabelResponse label_impl(ConstImageView image,
                                         LabelScratch& scratch,
                                         analysis::ComponentStats* stats)
      const;

  ParemspConfig config_;
};

}  // namespace paremsp
