// CCLLRPC baseline — Wu, Otoo & Suzuki 2009 (paper reference [36]).
//
// Decision-tree scan (one line at a time) + Wu's array union-find (link by
// smaller index with full path compression; see DESIGN.md substitution S4
// on the paper's "link by rank" wording). This is the slowest of the four
// algorithms in the paper's Table II and the baseline AREMSP is "39%
// faster" than.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

class CcllrpcLabeler final : public Labeler {
 public:
  explicit CcllrpcLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::Ccllrpc, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ccllrpc";
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
};

}  // namespace paremsp
