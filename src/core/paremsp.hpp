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

#include "core/equiv_policies.hpp"
#include "core/labeling.hpp"
#include "unionfind/lock_pool.hpp"

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
  /// Boundary-merge implementation.
  MergeBackend merge_backend = MergeBackend::LockedRem;
  /// log2 of the striped lock-pool size (LockedRem only).
  int lock_bits = uf::LockPool::kDefaultBits;
  /// Phase-I scan kernel.
  ScanStrategy scan = ScanStrategy::TwoLine;
  /// Post-link path compaction of the CAS backend (CasRem only).
  uf::CasFind cas_find = uf::CasFind::Naive;
  /// Walk-advancement splice of the CAS backend (CasRem only). The
  /// defaults reproduce the historical cas_unite; every combination is
  /// bit-identical (DESIGN.md §11) — throughput is the only difference.
  uf::CasSplice cas_splice = uf::CasSplice::Atomic;
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
  // label() is safe to call concurrently — the lock stripes only
  // serialize root updates.
  SeamMerger merger_;
};

}  // namespace paremsp
