// Parallel multi-pass labeler — modeled after Niknam, Thulasiraman &
// Camorlinga (paper reference [42]), the prior portable parallel CCL the
// paper's related work cites (max speedup 2.5 on 4 threads).
//
// The image is divided row-wise among threads; every global iteration each
// thread runs a forward then a backward min-label sweep over its
// chunk (reading neighbor rows of adjacent chunks through relaxed atomics
// — labels only decrease, so stale reads merely delay convergence), and
// the loop repeats until one full iteration changes nothing. [42] shares
// Suzuki's 1-D connection table between threads; sharing it serializes on
// synchronization, which is precisely why that approach scales poorly —
// here the table is omitted (pure min-label sweeps), giving the same
// multi-pass bottleneck PAREMSP's two-pass design eliminates: the bench
// ablation shows iteration counts, not constants, dominating.
#pragma once

#include "core/labeling.hpp"

namespace paremsp {

class ParallelSuzukiLabeler final : public Labeler {
 public:
  explicit ParallelSuzukiLabeler(
      Connectivity connectivity = Connectivity::Eight, int threads = 0);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "psuzuki";
  }
  [[nodiscard]] bool is_parallel() const noexcept override { return true; }

  /// Global iterations the most recent labeling needed (>= 1).
  [[nodiscard]] int last_iteration_count() const noexcept {
    return last_iterations_;
  }

 protected:
  [[nodiscard]] LabelResponse run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
      const override;

 private:
  int threads_;
  mutable int last_iterations_ = 0;
};

}  // namespace paremsp
