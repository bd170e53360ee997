// ARUN baseline — He, Chao & Suzuki 2012 (paper reference [37]).
//
// Two-lines-at-a-time scan (the same mask AREMSP uses; AREMSP took its
// scan strategy from here) combined with He's rtable/next/tail
// equivalence-set structure instead of union-find. The paper's Table II
// shows AREMSP ~4% faster than ARUN — the delta isolates REM's union-find
// against the linked-list set representation.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

class ArunLabeler final : public Labeler {
 public:
  explicit ArunLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::Arun, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "arun";
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
};

}  // namespace paremsp
