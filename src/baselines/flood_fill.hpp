// Flood-fill (BFS region growing) labeler — the ground-truth oracle.
//
// Not one of the paper's algorithms: it exists so the test suite has a
// correctness reference that shares no code with the scan-based labelers.
// Components are numbered in raster order of their first pixel, which is
// also what analysis::canonical_relabel produces.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

/// Breadth-first flood-fill labeler. Supports 4- and 8-connectivity.
class FloodFillLabeler final : public Labeler {
 public:
  explicit FloodFillLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::FloodFill, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "floodfill";
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
};

}  // namespace paremsp
