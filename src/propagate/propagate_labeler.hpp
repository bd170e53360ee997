// The label-propagation backend's Labeler front ends.
//
// PropagateLabeler is the sequential reference: every kernel runs inline
// over its full range. PropagateParLabeler launches the same kernels over
// partitioned ranges on std::thread (NOT OpenMP — the TSan CI job's
// positive filter relies on instrumented threading, and plain threads are
// exactly the launch shape a CUDA port replaces), joining between kernels
// the way a device stream serializes launches. Both are bit-identical to
// each other — the propagation fixpoint is schedule-independent and the
// canonical renumber is sequential — and, through that renumber, to
// sequential AREMSP (8-connectivity) and CCLREMSP (4-connectivity).
#pragma once

#include "core/labeling.hpp"
#include "propagate/propagate_kernels.hpp"

namespace paremsp {

/// Tuning for the coarse-to-fine propagation backend. The defaults are the
/// ROADMAP's "8-px coarse cells": one-row cells make the coarse pass a
/// pure run-collapse and keep seams row-aligned. Tests sweep geometries
/// down to 1x1 (every pixel its own block — the uncoarsened Komura
/// scheme) to pin that the coarsening is a pure optimization.
struct PropagateConfig {
  Coord block_rows = 1;
  Coord block_cols = 8;
  /// Worker threads for the parallel labeler; 0 = hardware concurrency.
  /// Ignored by the sequential reference.
  int threads = 0;
};

/// Sequential coarse-to-fine label propagation ("propagate").
class PropagateLabeler : public Labeler {
 public:
  explicit PropagateLabeler(PropagateConfig config = {},
                            Connectivity connectivity = Connectivity::Eight);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "propagate";
  }
  [[nodiscard]] const PropagateConfig& config() const noexcept {
    return config_;
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(
      ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
      analysis::ComponentStats* stats) const override;

 private:
  PropagateConfig config_;
};

/// std::thread data-parallel label propagation ("propagate_par").
class PropagateParLabeler : public Labeler {
 public:
  explicit PropagateParLabeler(PropagateConfig config = {},
                               Connectivity connectivity = Connectivity::Eight);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "propagate_par";
  }
  [[nodiscard]] bool is_parallel() const noexcept override { return true; }
  [[nodiscard]] const PropagateConfig& config() const noexcept {
    return config_;
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(
      ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
      analysis::ComponentStats* stats) const override;

 private:
  PropagateConfig config_;
};

}  // namespace paremsp
