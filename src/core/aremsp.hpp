// AREMSP — the paper's best sequential algorithm (§III-B).
//
// Scan strategy of ARUN (two lines / two pixels at a time, He et al. mask)
// combined with REM's union-find with splicing (Algorithm 5/6 of the
// paper). The paper measures AREMSP fastest among all sequential
// algorithms (Table II); PAREMSP is its parallelization.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

/// AREMSP labeler. 8-connectivity only (the two-line mask is inherently
/// 8-connected); constructing is cheap, run() does all the work.
class AremspLabeler final : public Labeler {
 public:
  explicit AremspLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::Aremsp, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "aremsp";
  }

 protected:
  /// Fused component analysis when `stats` is requested: features
  /// accumulate inside the two-line scan and reduce through FLATTEN — no
  /// post-pass over the pixels.
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
};

}  // namespace paremsp
