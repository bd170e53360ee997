#include "core/grayscale.hpp"

#include <vector>

#include "unionfind/rem.hpp"

namespace paremsp {

GrayLabeling label_grayscale(const GrayImage& image,
                                   Connectivity connectivity) {
  GrayLabeling result;
  result.labels = LabelImage(image.rows(), image.cols());
  if (image.size() == 0) return result;

  const Coord rows = image.rows();
  const Coord cols = image.cols();
  const bool eight = connectivity == Connectivity::Eight;

  std::vector<Label> p(static_cast<std::size_t>(image.size()) + 1);
  LabelImage& labels = result.labels;
  Label count = 0;

  // Scan: collect the prior-neighbor labels whose pixel value matches e.
  // Unlike the binary decision tree, equal-value adjacency is not
  // transitive across *different* values, so every matching neighbor must
  // be merged explicitly.
  for (Coord r = 0; r < rows; ++r) {
    for (Coord c = 0; c < cols; ++c) {
      const std::uint8_t v = image(r, c);
      Label l = 0;
      auto consider = [&](Coord nr, Coord nc) {
        if (nr < 0 || nc < 0 || nc >= cols) return;
        if (image(nr, nc) != v) return;
        const Label nl = labels(nr, nc);
        l = (l == 0) ? nl : uf::rem_unite(p.data(), l, nl);
      };
      consider(r, c - 1);          // d
      consider(r - 1, c);          // b
      if (eight) {
        consider(r - 1, c - 1);    // a
        consider(r - 1, c + 1);    // c
      }
      if (l == 0) {
        l = ++count;
        p[l] = l;
      }
      labels(r, c) = l;
    }
  }

  result.num_components = uf::rem_flatten(p.data(), count);
  for (Label& l : labels.pixels()) l = p[l];
  return result;
}

}  // namespace paremsp
