// RUN baseline — He, Chao & Suzuki's run-based two-scan algorithm
// (IEEE TIP 2008, paper reference [43]; compared against in §II).
//
// Instead of visiting pixels, the first scan decomposes each row into
// maximal foreground *runs* and connects each run to the runs of the
// previous row it overlaps (under 8-connectivity a run [s, e] overlaps
// previous-row runs intersecting [s-1, e+1]). Equivalences go into the
// same rtable/next/tail structure ARUN uses; the second scan writes final
// labels run by run.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

class RunLabeler final : public Labeler {
 public:
  explicit RunLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::Run, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "run";
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
};

}  // namespace paremsp
