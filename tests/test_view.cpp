// Strided-view labeling: an ROI view of a larger buffer labels
// bit-identically to the materialized crop, zero-copy, for every registry
// algorithm and both connectivities — plus degenerate pitches and an
// (ASan-verified) out-of-ROI write check on label_out.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"
#include "image/view.hpp"

namespace paremsp {
namespace {

/// Run a stats request on `view` and on its materialized crop; assert
/// bit-identical labels, counts, and stats.
void expect_view_matches_crop(const Labeler& labeler, ConstImageView view,
                              const std::string& context) {
  const BinaryImage crop = materialize(view);
  const LabelResponse want = labeler.run(testing::stats_request(crop));
  const LabelResponse got = labeler.run(testing::stats_request(view));

  EXPECT_EQ(got.num_components, want.num_components) << context;
  EXPECT_EQ(got.labels, want.labels) << context;
  ASSERT_TRUE(got.stats.has_value()) << context;
  paremsp::testing::expect_stats_identical(*got.stats, *want.stats, context);
}

// --- StridedView basics ------------------------------------------------------

TEST(StridedView, MirrorsRasterAccessors) {
  const BinaryImage image = gen::uniform_noise(7, 11, 0.5, 42);
  const ConstImageView view = image;
  EXPECT_EQ(view.rows(), image.rows());
  EXPECT_EQ(view.cols(), image.cols());
  EXPECT_EQ(view.pitch(), image.cols());
  EXPECT_EQ(view.size(), image.size());
  EXPECT_TRUE(view.contiguous());
  for (Coord r = 0; r < image.rows(); ++r) {
    for (Coord c = 0; c < image.cols(); ++c) {
      EXPECT_EQ(view(r, c), image(r, c));
    }
  }
  EXPECT_EQ(view.at_or(-1, 0, 9), 9);
  EXPECT_EQ(view.at_or(0, image.cols(), 9), 9);
}

TEST(StridedView, SubviewSharesStorageWithPitch) {
  BinaryImage image(6, 8, 0);
  image(2, 3) = 1;
  const ConstImageView roi = ConstImageView(image).subview(1, 2, 4, 5);
  EXPECT_EQ(roi.rows(), 4);
  EXPECT_EQ(roi.cols(), 5);
  EXPECT_EQ(roi.pitch(), 8);
  EXPECT_FALSE(roi.contiguous());
  EXPECT_EQ(roi(1, 1), 1);  // (2,3) in parent coordinates
  EXPECT_EQ(roi.data(), &image(1, 2));  // zero-copy: same storage
}

TEST(StridedView, RejectsInvalidGeometry) {
  std::vector<std::uint8_t> buffer(64, 0);
  EXPECT_THROW(ConstImageView(buffer.data(), 4, 8, 7), PreconditionError);
  EXPECT_THROW(ConstImageView(buffer.data(), -1, 8, 8), PreconditionError);
  EXPECT_THROW(ConstImageView(nullptr, 4, 8, 8), PreconditionError);
  const BinaryImage image(4, 4, 0);
  EXPECT_THROW((void)ConstImageView(image).subview(0, 0, 5, 4),
               PreconditionError);
  EXPECT_THROW((void)ConstImageView(image).subview(2, 2, 3, 1),
               PreconditionError);
}

// --- ROI labeling == crop labeling, all algorithms × connectivities ----------

TEST(ViewLabeling, RoiOfRasterMatchesCropForEveryAlgorithm) {
  // Mixed-structure parent image; the ROI cuts components apart, so the
  // view must NOT see the pixels outside its window.
  const BinaryImage parent = gen::landcover_like(48, 64, 2014);
  const ConstImageView roi = ConstImageView(parent).subview(5, 9, 32, 40);

  for (const auto& info : algorithm_catalog()) {
    for (const Connectivity conn :
         {Connectivity::Eight, Connectivity::Four}) {
      if (!info.supports(conn)) continue;
      const auto labeler =
          make_labeler(info.id, LabelerOptions{.connectivity = conn});
      expect_view_matches_crop(*labeler, roi,
                               std::string(info.name) + "/" +
                                   to_string(conn) + " ROI");
    }
  }
}

TEST(ViewLabeling, ExternalPaddedBufferMatchesCrop) {
  // A caller-owned frame with row padding (pitch > cols), the classic
  // camera/driver layout. Padding bytes are foreground-valued garbage:
  // reading them would visibly corrupt the labeling.
  constexpr Coord kRows = 23, kCols = 37;
  constexpr std::int64_t kPitch = 50;
  const BinaryImage content = gen::texture_like(kRows, kCols, 7);
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(kRows) * kPitch,
                                  0xCD);
  for (Coord r = 0; r < kRows; ++r) {
    for (Coord c = 0; c < kCols; ++c) {
      frame[static_cast<std::size_t>(r) * kPitch + c] = content(r, c);
    }
  }
  const ConstImageView view(frame.data(), kRows, kCols, kPitch);

  for (const auto& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    expect_view_matches_crop(*labeler, view,
                             std::string(info.name) + " padded buffer");
  }
}

TEST(ViewLabeling, DegeneratePitchesAndShapes) {
  const BinaryImage parent = gen::uniform_noise(33, 41, 0.55, 99);
  const ConstImageView whole = parent;
  struct Case {
    const char* name;
    ConstImageView view;
  };
  const Case cases[] = {
      {"pitch==width (full view)", whole},
      {"single row", whole.subview(13, 3, 1, 30)},
      {"single column", whole.subview(2, 17, 28, 1)},
      {"single pixel", whole.subview(5, 5, 1, 1)},
      {"empty (0x0)", whole.subview(4, 4, 0, 0)},
      {"zero rows", whole.subview(0, 0, 0, 10)},
      {"zero cols", whole.subview(0, 0, 10, 0)},
  };
  for (const auto& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    for (const Case& c : cases) {
      expect_view_matches_crop(*labeler, c.view,
                               std::string(info.name) + " " + c.name);
    }
  }
}

// --- label_out: strided output, no out-of-ROI writes -------------------------

TEST(ViewLabeling, LabelOutWritesExactlyTheRoi) {
  constexpr Label kSentinel = static_cast<Label>(0x5EADBEEF);
  const BinaryImage parent = gen::aerial_like(40, 56, 5);
  const ConstImageView roi = ConstImageView(parent).subview(4, 6, 24, 32);
  const BinaryImage crop = materialize(roi);

  for (const auto& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    const LabelResponse want = labeler->label(crop);

    // Destination: a larger strided label plane pre-filled with sentinels.
    constexpr std::int64_t kOutPitch = 40;
    std::vector<Label> out(static_cast<std::size_t>(24) * kOutPitch,
                           kSentinel);
    const MutableImageView label_out(out.data(), 24, 32, kOutPitch);

    LabelRequest request;
    request.input = roi;
    request.label_out = label_out;
    const LabelResponse response = labeler->run(request);

    // The owned plane stays empty: labels went to the caller's buffer.
    EXPECT_TRUE(response.labels.empty()) << info.name;
    EXPECT_EQ(response.num_components, want.num_components) << info.name;
    for (Coord r = 0; r < 24; ++r) {
      for (Coord c = 0; c < 32; ++c) {
        EXPECT_EQ(label_out(r, c), want.labels(r, c))
            << info.name << " at " << r << "," << c;
      }
      // Row padding is untouched — the request path never writes outside
      // the ROI (ASan would also flag any out-of-buffer write).
      for (std::int64_t c = 32; c < kOutPitch; ++c) {
        ASSERT_EQ(out[static_cast<std::size_t>(r) * kOutPitch + c], kSentinel)
            << info.name << " padding clobbered at row " << r;
      }
    }
  }
}

TEST(ViewLabeling, LabelOutDimensionMismatchThrows) {
  const BinaryImage image = gen::uniform_noise(8, 8, 0.5, 3);
  std::vector<Label> out(64, 0);
  LabelRequest request;
  request.input = image;
  request.label_out = MutableImageView(out.data(), 4, 8, 8);
  const auto labeler = make_labeler(Algorithm::Aremsp);
  EXPECT_THROW((void)labeler->run(request), PreconditionError);
}

}  // namespace
}  // namespace paremsp
