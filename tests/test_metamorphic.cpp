// Metamorphic testing of component features: geometric transforms of the
// INPUT image permute and remap components in exactly predictable ways, so
// the feature multiset of the transformed image must equal the predictably
// transformed feature multiset of the original — for every registry
// algorithm, fused or fallback, under both connectivities. A labeling
// permutation of the OUTPUT must leave the multiset untouched entirely.
//
// The relations hold EXACTLY (not approximately): area and bbox are
// integers, and centroids are carried as exact integer coordinate sums
// (ComponentInfo::row_sum/col_sum), so e.g. a horizontal flip maps
// col_sum -> area * (cols - 1) - col_sum with no floating-point slack.
// That exactness is what makes these tests sharp enough to catch a fused
// accumulator that is off by a single pixel.
//
// The randomized part of the matrix derives its seeds from
// PAREMSP_TEST_SEED (common/env.hpp), and every assertion names the exact
// seed, so CI failures replay verbatim:
//   PAREMSP_TEST_SEED=<seed> ./paremsp_tests --gtest_filter='Metamorphic.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/component_stats.hpp"
#include "common/env.hpp"
#include "common/prng.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "fixtures.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

/// One component's features with the label dropped: the multiset identity
/// the metamorphic relations quantify over. Everything integer → exact.
using FeatureKey = std::tuple<std::int64_t,              // area
                              Coord, Coord, Coord, Coord,  // bbox
                              std::int64_t, std::int64_t>; // row/col sums

FeatureKey key_of(const analysis::ComponentInfo& c) {
  return {c.area,        c.bbox.row_min, c.bbox.col_min, c.bbox.row_max,
          c.bbox.col_max, c.row_sum,      c.col_sum};
}

std::vector<FeatureKey> sorted_features(const analysis::ComponentStats& s) {
  std::vector<FeatureKey> keys;
  keys.reserve(s.components.size());
  for (const auto& c : s.components) keys.push_back(key_of(c));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- Input transforms -------------------------------------------------------

BinaryImage hflip(const BinaryImage& img) {
  BinaryImage out(img.rows(), img.cols());
  for (Coord r = 0; r < img.rows(); ++r) {
    for (Coord c = 0; c < img.cols(); ++c) {
      out(r, img.cols() - 1 - c) = img(r, c);
    }
  }
  return out;
}

BinaryImage vflip(const BinaryImage& img) {
  BinaryImage out(img.rows(), img.cols());
  for (Coord r = 0; r < img.rows(); ++r) {
    for (Coord c = 0; c < img.cols(); ++c) {
      out(img.rows() - 1 - r, c) = img(r, c);
    }
  }
  return out;
}

BinaryImage transpose(const BinaryImage& img) {
  BinaryImage out(img.cols(), img.rows());
  for (Coord r = 0; r < img.rows(); ++r) {
    for (Coord c = 0; c < img.cols(); ++c) {
      out(c, r) = img(r, c);
    }
  }
  return out;
}

// --- Feature transforms (inverse images of the input transforms) ------------

/// Features of the h-flipped image, mapped back to original coordinates:
/// c -> cols-1-c swaps/reflects the column extremes and reflects col_sum.
FeatureKey unflip_h(const FeatureKey& k, Coord cols) {
  const auto [area, rmin, cmin, rmax, cmax, rsum, csum] = k;
  return {area, rmin, cols - 1 - cmax, rmax, cols - 1 - cmin, rsum,
          area * static_cast<std::int64_t>(cols - 1) - csum};
}

FeatureKey unflip_v(const FeatureKey& k, Coord rows) {
  const auto [area, rmin, cmin, rmax, cmax, rsum, csum] = k;
  return {area, rows - 1 - rmax, cmin, rows - 1 - rmin, cmax,
          area * static_cast<std::int64_t>(rows - 1) - rsum, csum};
}

FeatureKey untranspose(const FeatureKey& k) {
  const auto [area, rmin, cmin, rmax, cmax, rsum, csum] = k;
  return {area, cmin, rmin, cmax, rmax, csum, rsum};
}

template <class UnmapFn>
std::vector<FeatureKey> mapped_back(const analysis::ComponentStats& s,
                                    UnmapFn&& unmap) {
  std::vector<FeatureKey> keys;
  keys.reserve(s.components.size());
  for (const auto& c : s.components) keys.push_back(unmap(key_of(c)));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- Harness ----------------------------------------------------------------

std::string dump_case(const AlgorithmInfo& info, const BinaryImage& image,
                      Connectivity connectivity, const std::string& source) {
  std::ostringstream os;
  os << info.name << " on " << source << ", " << to_string(connectivity)
     << " (set PAREMSP_TEST_SEED to replay a randomized case)\n";
  if (image.size() > 0 && image.rows() <= 48 && image.cols() <= 80) {
    os << to_ascii(image);
  }
  return os.str();
}

/// All four metamorphic relations for one algorithm on one image.
void check_invariants(const AlgorithmInfo& info, const BinaryImage& image,
                      Connectivity connectivity, const std::string& source) {
  LabelerOptions options;
  options.connectivity = connectivity;
  if (!info.supports(connectivity)) return;
  const auto labeler = make_labeler(info.id, options);
  const std::string why = dump_case(info, image, connectivity, source);

  // Every stats request below draws from one scratch, warm after the
  // first.
  LabelScratch scratch;
  const LabelResponse base =
      labeler->run(testing::stats_request(image), scratch);
  const std::vector<FeatureKey> expected = sorted_features(*base.stats);
  const auto stats_of = [&](const BinaryImage& input) {
    LabelResponse response =
        labeler->run(testing::stats_request(input), scratch);
    scratch.recycle_plane(std::move(response.labels));
    return std::move(*response.stats);
  };

  // Horizontal flip: same components, columns reflected.
  {
    const auto flipped = stats_of(hflip(image));
    EXPECT_EQ(mapped_back(flipped,
                          [&](const FeatureKey& k) {
                            return unflip_h(k, image.cols());
                          }),
              expected)
        << "horizontal-flip invariance broken: " << why;
  }

  // Vertical flip: rows reflected.
  {
    const auto flipped = stats_of(vflip(image));
    EXPECT_EQ(mapped_back(flipped,
                          [&](const FeatureKey& k) {
                            return unflip_v(k, image.rows());
                          }),
              expected)
        << "vertical-flip invariance broken: " << why;
  }

  // Transpose: rows and columns exchange roles (8- and 4-connectivity are
  // both symmetric under it).
  {
    const auto t = stats_of(transpose(image));
    EXPECT_EQ(mapped_back(t,
                          [](const FeatureKey& k) { return untranspose(k); }),
              expected)
        << "transpose invariance broken: " << why;
  }

  // Label permutation: shuffling the final label values (a relabeling of
  // the OUTPUT) must not change the feature multiset.
  if (base.num_components > 1) {
    const Label k = base.num_components;
    std::vector<Label> perm(static_cast<std::size_t>(k) + 1);
    std::iota(perm.begin(), perm.end(), Label{0});
    Xoshiro256 rng(0x9e3779b97f4a7c15ULL ^
                   static_cast<std::uint64_t>(image.size()));
    for (std::size_t i = perm.size() - 1; i > 1; --i) {
      const std::size_t j = 1 + static_cast<std::size_t>(rng() % i);
      std::swap(perm[i], perm[j]);
    }
    LabelImage permuted = base.labels;
    for (Label& l : permuted.pixels()) l = perm[static_cast<std::size_t>(l)];
    const auto permuted_stats = analysis::compute_stats(permuted, k);
    EXPECT_EQ(sorted_features(permuted_stats), expected)
        << "label-permutation invariance broken: " << why;
  }
}

void check_all_algorithms(const BinaryImage& image,
                          const std::string& source) {
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    for (const AlgorithmInfo& info : algorithm_catalog()) {
      check_invariants(info, image, connectivity, source);
    }
  }
}

TEST(Metamorphic, RandomizedGeneratorMatrix) {
  // The density sweep of the differential suite, reduced to the shapes
  // where flips/transposes exercise distinct row/column handling. Base
  // seed overridable for verbatim replay of CI failures.
  const std::uint64_t base_seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  const std::vector<std::pair<Coord, Coord>> shapes = {
      {1, 17}, {2, 2}, {7, 5}, {9, 16}, {13, 23},
  };
  const double densities[] = {0.1, 0.35, 0.6, 0.9};
  std::uint64_t seed = base_seed;
  for (const auto& [rows, cols] : shapes) {
    for (const double density : densities) {
      ++seed;
      std::ostringstream source;
      source << "gen::uniform_noise(" << rows << ", " << cols << ", "
             << density << ", " << seed << "ULL)";
      check_all_algorithms(gen::uniform_noise(rows, cols, density, seed),
                           source.str());
    }
  }
}

TEST(Metamorphic, StructuredPatterns) {
  // Asymmetric structured inputs: flips genuinely move pixels (a symmetric
  // input would make the relations vacuous), corner contacts and seam
  // snakes stress the union paths.
  check_all_algorithms(gen::spiral(18, 26, 1, 2), "gen::spiral(18,26,1,2)");
  check_all_algorithms(gen::text_banner("Fq", 2, 1),
                       "gen::text_banner(\"Fq\",2,1)");
  check_all_algorithms(gen::random_rectangles(21, 17, 7, 2, 6, 11),
                       "gen::random_rectangles(21,17,7,2,6,11)");
  check_all_algorithms(gen::diagonal_stripes(14, 22, 4, 2),
                       "gen::diagonal_stripes(14,22,4,2)");
}

TEST(Metamorphic, DegenerateShapes) {
  check_all_algorithms(BinaryImage(), "BinaryImage()");
  check_all_algorithms(BinaryImage(1, 1, 1), "BinaryImage(1,1,1)");
  check_all_algorithms(BinaryImage(5, 7, 1), "BinaryImage(5,7,1)");
  const std::uint64_t base_seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  check_all_algorithms(gen::uniform_noise(1, 31, 0.5, base_seed + 100),
                       "gen::uniform_noise(1,31,0.5,seed+100)");
  check_all_algorithms(gen::uniform_noise(29, 1, 0.5, base_seed + 101),
                       "gen::uniform_noise(29,1,0.5,seed+101)");
}

}  // namespace
}  // namespace paremsp
