// Labeler base: identity/validation, the binarizing run_gray_impl
// fallback and the label() convenience over run() (core/request.cpp).
#include "core/labeling.hpp"

#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"

namespace paremsp {

Labeler::Labeler(Algorithm algorithm, Connectivity connectivity)
    : algorithm_(algorithm), default_connectivity_(connectivity) {
  require_supported(algorithm, connectivity);
}

LabelResponse Labeler::run_gray_impl(ConstImageView gray, std::uint8_t cutoff,
                                     Connectivity connectivity,
                                     LabelScratch& scratch,
                                     analysis::ComponentStats* stats) const {
  // Fallback for labelers without a fused threshold path: materialize the
  // binarized plane once, then label it as usual.
  BinaryImage binary(gray.rows(), gray.cols());
  for (Coord r = 0; r < gray.rows(); ++r) {
    const std::uint8_t* src = gray.row(r);
    std::uint8_t* dst = binary.row(r);
    for (Coord c = 0; c < gray.cols(); ++c) {
      dst[c] = src[c] > cutoff ? std::uint8_t{1} : std::uint8_t{0};
    }
  }
  return run_impl(binary, connectivity, scratch, stats);
}

LabelResponse Labeler::label(ConstImageView image) const {
  LabelRequest request;
  request.input = image;
  return run(request);
}

}  // namespace paremsp
