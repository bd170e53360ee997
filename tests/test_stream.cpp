// Streaming slab sessions: differential equivalence against one-shot
// labeling of the concatenated image. The contract under test
// (stream/slab_session.hpp): for ANY way of cutting an image into
// horizontal slabs — uniform heights, random ragged partitions, 1-row
// slabs, the whole image as one slab — the session's component count,
// fused stats (bit-identical), and per-slab planes composed through the
// finish() remap tables equal the one-shot result exactly, for both
// connectivities. Randomized cases replay via
// PAREMSP_TEST_SEED:
//
//   PAREMSP_TEST_SEED=<seed> ./paremsp_tests --gtest_filter='Stream*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/env.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "image/generators.hpp"
#include "obs/trace.hpp"
#include "stream/slab_session.hpp"

namespace paremsp {
namespace {

using stream::SlabResult;
using stream::SlabSession;
using stream::SlabWork;
using stream::StreamOptions;
using stream::StreamResult;

/// Content mix with every seam flavor: organic patches, a spiral that
/// crosses any horizontal cut many times, corner-contact checkerboards
/// (the 8-vs-4 discriminator), and noise.
BinaryImage stream_image(Coord rows, Coord cols, std::uint64_t seed) {
  switch (seed % 4) {
    case 0: return gen::landcover_like(rows, cols, seed);
    case 1: return gen::spiral(rows, cols, 2, 3);
    case 2: return gen::checkerboard(rows, cols, 1);
    default: return gen::uniform_noise(rows, cols, 0.5, seed);
  }
}

GrayImage gray_image(Coord rows, Coord cols, std::uint64_t seed) {
  GrayImage image(rows, cols);
  std::mt19937_64 rng(seed);
  for (Coord r = 0; r < rows; ++r) {
    std::uint8_t* row = image.row(r);
    for (Coord c = 0; c < cols; ++c) {
      row[c] = static_cast<std::uint8_t>(rng() & 0xff);
    }
  }
  return image;
}

/// One-shot reference over the concatenated image (run-based AREMSP via
/// the unified request API — the same kernels the session reuses, but
/// exercised through a totally different control path).
LabelResponse one_shot(ConstImageView input, const StreamOptions& opts) {
  LabelRequest request;
  request.input = input;
  request.connectivity = opts.connectivity;
  request.threshold = opts.threshold;
  request.outputs.stats = opts.stats;
  return make_labeler(Algorithm::AremspRle)->run(request);
}

/// Stream `input` through a session with the given slab heights and
/// check every acceptance property against the one-shot reference.
void expect_stream_matches(ConstImageView input, StreamOptions opts,
                           const std::vector<Coord>& heights,
                           const std::string& context) {
  const Coord rows = input.rows();
  const Coord cols = input.cols();
  opts.cols = cols;
  const LabelResponse ref = one_shot(input, opts);

  SlabSession session(opts);
  std::vector<LabelImage> planes;
  Coord consumed = 0;
  std::size_t carried_prev = 0;
  for (std::size_t k = 0; consumed < rows; ++k) {
    const Coord take =
        std::min(heights[k % heights.size()], rows - consumed);
    SlabResult slab =
        session.push_slab(input.subview(consumed, 0, take, cols));
    EXPECT_EQ(slab.row_begin, consumed) << context;
    EXPECT_EQ(slab.rows, take) << context;
    EXPECT_EQ(slab.slab_index, k) << context;
    EXPECT_EQ(slab.carried_in, carried_prev) << context;
    EXPECT_LE(slab.open_components, slab.seam_runs_out) << context;
    carried_prev = slab.seam_runs_out;
    if (opts.labels) {
      // A slab's plane is one-shot labeling of that slab alone.
      EXPECT_EQ(slab.labels,
                one_shot(input.subview(consumed, 0, take, cols), opts).labels)
          << context << " slab " << k;
      planes.push_back(std::move(slab.labels));
    }
    consumed += take;
  }
  const std::size_t slabs = session.slabs_pushed();
  EXPECT_GT(session.seam_state_bytes(), 0u) << context;

  StreamResult done = session.finish();
  EXPECT_EQ(done.num_components, ref.num_components) << context;
  EXPECT_EQ(done.rows, rows) << context;
  EXPECT_EQ(done.slabs, slabs) << context;
  ASSERT_EQ(done.slab_remaps.size(), slabs) << context;
  // finish() releases the carried seam and tracking state.
  EXPECT_EQ(session.seam_state_bytes(), 0u) << context;

  if (opts.labels) {
    // Composing each slab's remap table over its plane must reproduce
    // the one-shot labeling row for row.
    Coord r0 = 0;
    for (std::size_t k = 0; k < planes.size(); ++k) {
      const std::vector<Label>& remap = done.slab_remaps[k];
      for (Coord r = 0; r < planes[k].rows(); ++r) {
        const Label* got = planes[k].row(r);
        const Label* want = ref.labels.row(r0 + r);
        for (Coord c = 0; c < cols; ++c) {
          const Label local = got[c];
          ASSERT_LT(static_cast<std::size_t>(local), remap.size())
              << context << " slab " << k;
          if (remap[static_cast<std::size_t>(local)] != want[c]) {
            FAIL() << context << ": slab " << k << " pixel (" << r << ", "
                   << c << ") remaps to "
                   << remap[static_cast<std::size_t>(local)]
                   << ", one-shot labeled " << want[c];
          }
        }
      }
      r0 += planes[k].rows();
    }
  }

  if (opts.stats) {
    ASSERT_TRUE(done.stats.has_value()) << context;
    ASSERT_TRUE(ref.stats.has_value()) << context;
    // Bit-identical, centroid doubles included: both sides divide the
    // same exact integer sums by the same areas.
    EXPECT_EQ(done.stats->components, ref.stats->components) << context;
  }
}

std::string case_name(Connectivity conn, Coord rows, Coord cols,
                      std::uint64_t seed, const std::vector<Coord>& heights) {
  std::ostringstream os;
  os << (conn == Connectivity::Eight ? "8-conn" : "4-conn") << " " << rows
     << "x" << cols << " seed=" << seed << " heights={";
  for (std::size_t i = 0; i < heights.size(); ++i) {
    os << (i != 0 ? "," : "") << heights[i];
  }
  os << "} (set PAREMSP_TEST_SEED to replay)";
  return os.str();
}

TEST(Stream, SlabHeightSweepMatchesOneShotBothConnectivities) {
  const std::uint64_t seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  const Coord rows = 37, cols = 53;
  for (const Connectivity conn : {Connectivity::Eight, Connectivity::Four}) {
    for (std::uint64_t variant = 0; variant < 4; ++variant) {
      const BinaryImage image = stream_image(rows, cols, seed + variant);
      // 1-row slabs, even/odd heights (odd heights park later slabs on
      // odd global rows — the two-line pair-straddle case), and the
      // degenerate single full-image slab.
      for (const Coord h :
           {Coord{1}, Coord{2}, Coord{3}, Coord{5}, Coord{16}, rows}) {
        StreamOptions opts;
        opts.connectivity = conn;
        opts.stats = true;
        expect_stream_matches(ConstImageView(image), opts, {h},
                              case_name(conn, rows, cols, seed + variant, {h}));
      }
    }
  }
}

TEST(Stream, RandomizedRaggedPartitionsMatchOneShot) {
  const std::uint64_t seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  for (int trial = 0; trial < 12; ++trial) {
    const Coord rows = 8 + static_cast<Coord>(rng() % 90);
    const Coord cols = 1 + static_cast<Coord>(rng() % 70);
    const BinaryImage image = stream_image(rows, cols, rng());
    // A full random partition: every slab a different height.
    std::vector<Coord> heights;
    Coord planned = 0;
    while (planned < rows) {
      const Coord h = 1 + static_cast<Coord>(rng() % 11);
      heights.push_back(h);
      planned += h;
    }
    StreamOptions opts;
    opts.connectivity =
        (rng() & 1) != 0 ? Connectivity::Eight : Connectivity::Four;
    opts.stats = (rng() & 1) != 0;
    expect_stream_matches(
        ConstImageView(image), opts, heights,
        case_name(opts.connectivity, rows, cols, seed, heights));
  }
}

TEST(Stream, FusedThresholdStreamingMatchesOneShotGrayscale) {
  const std::uint64_t seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  const Coord rows = 45, cols = 33;
  const GrayImage gray = gray_image(rows, cols, seed);
  for (const double threshold : {0.25, 0.5, 0.75}) {
    StreamOptions opts;
    opts.threshold = threshold;
    opts.stats = true;
    expect_stream_matches(
        ConstImageView(gray), opts, {Coord{7}},
        case_name(Connectivity::Eight, rows, cols, seed, {Coord{7}}));
  }
}

TEST(Stream, StatsOnlySessionNeverMaterializesPlanes) {
  const BinaryImage image = stream_image(40, 40, 2);
  StreamOptions opts;
  opts.labels = false;
  opts.stats = true;
  expect_stream_matches(ConstImageView(image), opts, {Coord{6}},
                        "stats-only session");
}

TEST(Stream, AllBackgroundAndAllForegroundStreams) {
  for (const std::uint8_t fill : {std::uint8_t{0}, std::uint8_t{1}}) {
    BinaryImage image(29, 17);
    for (Coord r = 0; r < image.rows(); ++r) {
      std::fill_n(image.row(r), image.cols(), fill);
    }
    for (const Connectivity conn :
         {Connectivity::Eight, Connectivity::Four}) {
      StreamOptions opts;
      opts.connectivity = conn;
      opts.stats = true;
      expect_stream_matches(ConstImageView(image), opts, {Coord{4}},
                            fill != 0 ? "all foreground" : "all background");
    }
  }
}

TEST(Stream, SingleColumnAndSingleRowGeometries) {
  const std::uint64_t seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  {
    const BinaryImage tall = gen::uniform_noise(64, 1, 0.6, seed);
    StreamOptions opts;
    opts.stats = true;
    expect_stream_matches(ConstImageView(tall), opts, {Coord{1}},
                          "64x1 column, 1-row slabs");
  }
  {
    const BinaryImage wide = gen::uniform_noise(1, 64, 0.6, seed);
    StreamOptions opts;
    opts.stats = true;
    expect_stream_matches(ConstImageView(wide), opts, {Coord{1}},
                          "1x64 row, single slab");
  }
}

TEST(Stream, ResidentFootprintStaysBelowOneShotWorkingSet) {
  // The streaming memory contract: once an image spans at least four
  // slabs, the seam state's high-water plus one slab's working set stays
  // below one-shot run-based AREMSP's working set — the label plane plus
  // a provisional parent array of n/2 + 2 labels, 4n + 4(n/2 + 2) bytes
  // (the input is borrowed on both paths, so it cancels out).
  const Coord rows = 1024, cols = 192;
  const std::size_t n =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  const std::size_t one_shot_bytes =
      n * sizeof(Label) + (n / 2 + 2) * sizeof(Label);
  const BinaryImage landcover = gen::landcover_like(rows, cols, 2014);
  const BinaryImage noise = gen::uniform_noise(rows, cols, 0.5, 2014);
  for (const BinaryImage* image : {&landcover, &noise}) {
    for (const Coord slab_rows : {Coord{64}, Coord{256}}) {
      StreamOptions opts;
      opts.cols = cols;
      SlabSession session(opts);
      std::size_t seam_peak = 0;
      for (Coord r = 0; r < rows; r += slab_rows) {
        const ConstImageView slab =
            ConstImageView(*image).subview(r, 0, slab_rows, cols);
        session.recycle(std::move(session.push_slab(slab).labels));
        seam_peak = std::max(seam_peak, session.seam_state_bytes());
      }
      ASSERT_GE(session.slabs_pushed(), 4u);
      EXPECT_LT(seam_peak + session.slab_working_bytes(), one_shot_bytes)
          << (image == &noise ? "noise" : "landcover") << ", " << slab_rows
          << "-row slabs: seam peak " << seam_peak << " B + slab working "
          << session.slab_working_bytes() << " B";
    }
  }
}

TEST(Stream, LargeSlabsFanOutAndMatchOneShot) {
  // Slabs of >= 1 Mi pixels are labeled as row bands across the pool, two
  // bands here on any host with two or more cores. The first slab's odd
  // height puts the second on an odd global row: it straddles a two-line
  // pair at the slab cut and at its band cut, where a component's global
  // first run can sit in the next band's first row.
  constexpr Coord kCols = 4096;
  const std::vector<Coord> heights = {257, 256};
  const Coord rows = heights[0] + heights[1];
  const std::uint64_t seed = env_uint64("PAREMSP_TEST_SEED", 0xfea7);
  BinaryImage image = gen::uniform_noise(rows, kCols, 0.5, seed);
  // Left of the noise, on a blank field, one motif per odd row s in its
  // own 12-column block at x: component X is first met at (s - 1, x + 6)
  // in a slab's row order, but its global first pixel is (s, x + 1),
  // reached through row s + 1; the lone pixel Y at (s - 1, x + 3) lies
  // between the two in the two-line order of pair (s - 1, s). If a band
  // cut falls at s and X's key missed row s, Y would number before X.
  for (Coord r = 0; r < rows; ++r) {
    std::fill_n(image.row(r), 12 * (rows / 2) + 4, 0);
  }
  for (Coord s = 1; s + 1 < rows; s += 2) {
    const Coord x = 12 * (s / 2);
    image(s - 1, x + 6) = image(s, x + 7) = image(s, x + 1) = 1;  // X
    std::fill_n(image.row(s + 1) + x + 2, 5, 1);                  // X
    image(s - 1, x + 3) = 1;                                      // Y
  }
  for (const Connectivity conn : {Connectivity::Eight, Connectivity::Four}) {
    StreamOptions opts;
    opts.connectivity = conn;
    opts.stats = true;
    expect_stream_matches(ConstImageView(image), opts, heights,
                          case_name(conn, rows, kCols, seed, heights));
  }

  // Fan-out: each slab's pipeline scans min(2, hardware threads) bands.
  StreamOptions opts;
  opts.cols = kCols;
  opts.labels = false;
  SlabSession session(opts);
  obs::TraceSession trace;
  (void)session.push_slab(
      ConstImageView(image).subview(0, 0, heights[0], kCols));
  (void)session.push_slab(
      ConstImageView(image).subview(heights[0], 0, heights[1], kCols));
  const obs::TraceReport report = trace.stop();
  std::size_t band_scans = 0;
  for (const obs::ThreadTrace& t : report.threads) {
    for (const obs::TraceEvent& e : t.events) {
      band_scans += std::string_view(e.name) == "rle.scan.tile" ? 1 : 0;
    }
  }
  EXPECT_EQ(band_scans, session.slabs_pushed() *
                            static_cast<std::size_t>(
                                std::min(2, hardware_threads())));
}

TEST(Stream, SlabsLabeledAheadFoldInOrderLikePushSlab) {
  // label() reads only the options, so every slab may be labeled — here
  // last slab first, each in its own work area — before any is folded.
  // Folding the areas in slab order must give exactly what push_slab
  // gives: the same SlabResults, remaps and stats.
  const Coord rows = 90, cols = 77;
  const BinaryImage image = stream_image(rows, cols, 11);
  const std::vector<Coord> heights = {7, 1, 16, 13, 20, 33};
  for (const Connectivity conn : {Connectivity::Eight, Connectivity::Four}) {
    StreamOptions opts;
    opts.cols = cols;
    opts.connectivity = conn;
    opts.stats = true;
    SlabSession ahead(opts);
    SlabSession pushed(opts);
    std::vector<SlabWork> areas(heights.size());
    Coord row = rows;
    for (std::size_t k = heights.size(); k-- > 0;) {
      row -= heights[k];
      ahead.label(ConstImageView(image).subview(row, 0, heights[k], cols),
                  areas[k]);
    }
    ASSERT_EQ(row, 0);
    for (std::size_t k = 0; k < heights.size(); ++k) {
      const SlabResult want = pushed.push_slab(
          ConstImageView(image).subview(row, 0, heights[k], cols));
      const SlabResult got = ahead.fold(areas[k]);
      EXPECT_EQ(got.row_begin, want.row_begin);
      EXPECT_EQ(got.local_components, want.local_components);
      EXPECT_EQ(got.labels, want.labels);
      EXPECT_EQ(got.runs, want.runs);
      EXPECT_EQ(got.carried_in, want.carried_in);
      EXPECT_EQ(got.seam_runs_out, want.seam_runs_out);
      EXPECT_EQ(got.open_components, want.open_components);
      row += heights[k];
    }
    const StreamResult got = ahead.finish();
    const StreamResult want = pushed.finish();
    EXPECT_EQ(got.num_components, want.num_components);
    EXPECT_EQ(got.slab_remaps, want.slab_remaps);
    ASSERT_TRUE(got.stats.has_value());
    EXPECT_EQ(got.stats->components, want.stats->components);
  }
}

TEST(Stream, EmptySessionFinishResolvesToNothing) {
  StreamOptions opts;
  opts.cols = 8;
  SlabSession session(opts);
  const StreamResult done = session.finish();
  EXPECT_EQ(done.num_components, 0);
  EXPECT_EQ(done.rows, 0);
  EXPECT_EQ(done.slabs, 0u);
  EXPECT_TRUE(done.slab_remaps.empty());
}

// ---- Failing configurations: errors, never UB ---------------------------

TEST(StreamValidation, RejectsInvalidOptions) {
  EXPECT_THROW(SlabSession((StreamOptions{})), PreconditionError);  // cols 0
  {
    StreamOptions opts;
    opts.cols = 8;
    opts.threshold = 1.5;
    EXPECT_THROW(SlabSession{opts}, PreconditionError);
  }
  {
    StreamOptions opts;
    opts.cols = 8;
    opts.threshold = -0.1;
    EXPECT_THROW(SlabSession{opts}, PreconditionError);
  }
}

TEST(StreamValidation, RejectsMismatchedAndDegenerateSlabs) {
  StreamOptions opts;
  opts.cols = 16;
  SlabSession session(opts);
  const BinaryImage wrong_width = gen::uniform_noise(4, 8, 0.5, 1);
  EXPECT_THROW(session.push_slab(ConstImageView(wrong_width)),
               PreconditionError);
  const BinaryImage right_width = gen::uniform_noise(4, 16, 0.5, 1);
  EXPECT_THROW(
      session.push_slab(ConstImageView(right_width).subview(0, 0, 0, 16)),
      PreconditionError);
  // The session survives rejected pushes: a valid push still works.
  EXPECT_NO_THROW(session.push_slab(ConstImageView(right_width)));
}

TEST(StreamValidation, DoubleFinishAndPushAfterFinishThrow) {
  StreamOptions opts;
  opts.cols = 8;
  SlabSession session(opts);
  const BinaryImage image = gen::uniform_noise(3, 8, 0.5, 7);
  (void)session.push_slab(ConstImageView(image));
  (void)session.finish();
  EXPECT_TRUE(session.finished());
  EXPECT_THROW((void)session.finish(), PreconditionError);
  EXPECT_THROW((void)session.push_slab(ConstImageView(image)),
               PreconditionError);
}

TEST(StreamValidation, RequestDeadlineMustBePositive) {
  const BinaryImage image = gen::uniform_noise(8, 8, 0.5, 3);
  const auto labeler = make_labeler(Algorithm::AremspRle);
  for (const auto budget :
       {std::chrono::nanoseconds{0}, std::chrono::nanoseconds{-5}}) {
    LabelRequest request;
    request.input = ConstImageView(image);
    request.deadline = budget;
    EXPECT_THROW((void)labeler->run(request), PreconditionError);
  }
}

TEST(StreamValidation, DirectRunHonorsCancellationAtEntry) {
  const BinaryImage image = gen::uniform_noise(8, 8, 0.5, 3);
  CancelSource source;
  LabelRequest request;
  request.input = ConstImageView(image);
  request.cancel = source.token();
  const auto labeler = make_labeler(Algorithm::AremspRle);
  EXPECT_NO_THROW((void)labeler->run(request));  // token not yet fired
  source.request_cancel();
  EXPECT_THROW((void)labeler->run(request), CancelledError);
}

}  // namespace
}  // namespace paremsp
