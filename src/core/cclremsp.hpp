// CCLREMSP — the paper's first proposed sequential algorithm (§III-A).
//
// Scan strategy of CCLLRPC (one line at a time, Wu decision tree) combined
// with REM's union-find with splicing for the label equivalences
// (Algorithm 1/4 of the paper).
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

/// CCLREMSP labeler. Supports 8-connectivity (paper) and 4-connectivity
/// (extension) — per request or as the construction default.
class CclremspLabeler final : public Labeler {
 public:
  explicit CclremspLabeler(Connectivity connectivity = Connectivity::Eight)
      : Labeler(Algorithm::Cclremsp, connectivity) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "cclremsp";
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;
};

}  // namespace paremsp
