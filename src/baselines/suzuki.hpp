// Suzuki baseline — Suzuki, Horiba & Sugie 2003 (paper reference [10]).
//
// The linear-time *multi-pass* algorithm the two-pass family improves on:
// alternating forward/backward raster scans spread label equivalences
// through a 1-D label connection table until a scan makes no change.
// Suzuki et al. prove four scans suffice for "ordinary" images; pathological
// spirals need more. Included because the paper's related work measures a
// parallel version of it (max speedup 2.5 on 4 threads) as the prior state
// of portable parallel CCL.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

class SuzukiLabeler final : public Labeler {
 public:
  explicit SuzukiLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::Suzuki, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "suzuki";
  }

  /// Number of image scans the most recent labeling needed (>= 2).
  [[nodiscard]] int last_scan_count() const noexcept {
    return last_scan_count_;
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;

 private:
  mutable int last_scan_count_ = 0;
};

}  // namespace paremsp
