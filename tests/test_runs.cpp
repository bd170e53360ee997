// The run-based scan layer: RowBits word packing, RunBuffer extraction
// edge cases (cross-checked against a naive per-pixel extractor),
// pitch-strided ROI subviews, and the rle labelers' bit-identity with
// the sequential pixel labelers — including fused stats and the engine's
// sharded pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/equivalence.hpp"
#include "analysis/validation.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/equiv_policies.hpp"
#include "core/label_scratch.hpp"
#include "core/paremsp.hpp"
#include "core/registry.hpp"
#include "core/rle_labelers.hpp"
#include "core/runs.hpp"
#include "core/scan_two_line.hpp"  // NoFeatureSink
#include "engine/engine.hpp"
#include "fixtures.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"
#include "image/row_bits.hpp"
#include "image/threshold.hpp"

namespace paremsp {
namespace {

/// Naive per-pixel run extractor for one row: the oracle RunBuffer::extract
/// (RowBits words + countr walking) must reproduce exactly.
std::vector<Run> naive_row_runs(ConstImageView image, Coord r,
                                Coord col_begin, Coord col_end) {
  std::vector<Run> runs;
  Coord c = col_begin;
  while (c < col_end) {
    if (image(r, c) == 0) {
      ++c;
      continue;
    }
    const Coord begin = c;
    while (c < col_end && image(r, c) != 0) ++c;
    runs.push_back(Run{begin, c, 0});
  }
  return runs;
}

/// Same column ranges, run by run.
void expect_same_runs(std::span<const Run> got, std::span<const Run> want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].col_begin, want[i].col_begin) << context << " run " << i;
    EXPECT_EQ(got[i].col_end, want[i].col_end) << context << " run " << i;
  }
}

void expect_extraction_matches_naive(ConstImageView image, Coord row_begin,
                                     Coord row_end, Coord col_begin,
                                     Coord col_end,
                                     const std::string& context) {
  RunBuffer buffer;
  buffer.extract(image, row_begin, row_end, col_begin, col_end);
  // row() slices must match the naive rows and partition all() in row
  // order — the row of a run is only ever implied by its slice.
  std::size_t counted = 0;
  for (Coord r = row_begin; r < row_end; ++r) {
    const std::span<const Run> got = buffer.row(r);
    const std::string where = context + " row " + std::to_string(r);
    EXPECT_EQ(got.data(), buffer.all().data() + counted) << where;
    expect_same_runs(got, naive_row_runs(image, r, col_begin, col_end),
                     where);
    counted += got.size();
  }
  EXPECT_EQ(counted, buffer.size()) << context;
}

TEST(RowBits, Pack8MatchesPerPixel) {
  const std::uint8_t px[8] = {0, 1, 0, 255, 7, 0, 0, 128};
  const std::uint64_t bits = RowBits::pack8(px);
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ((bits >> j) & 1u, px[j] != 0 ? 1u : 0u) << "bit " << j;
  }
  EXPECT_EQ(bits >> 8, 0u);  // nothing above the eight pixel bits
}

TEST(RowBits, EncodeZeroPadsTheTailWord) {
  const BinaryImage image(1, 70, 1);  // all foreground, 70 = 64 + 6
  RowBits bits;
  bits.encode(image, 0, 0, 70);
  ASSERT_EQ(bits.words().size(), 2u);
  EXPECT_EQ(bits.words()[0], ~std::uint64_t{0});
  EXPECT_EQ(bits.words()[1], (std::uint64_t{1} << 6) - 1);  // only 6 bits
}

// --- SIMD pack kernels: per-tier differential vs the scalar oracle ----------

/// Every tier the host can actually run (the dispatcher clamps requests
/// above detected_simd_tier(), so asking for more would silently re-test
/// the same table).
std::vector<SimdTier> runnable_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::Scalar};
  if (detected_simd_tier() >= SimdTier::Sse2) tiers.push_back(SimdTier::Sse2);
  if (detected_simd_tier() >= SimdTier::Avx2) tiers.push_back(SimdTier::Avx2);
  return tiers;
}

/// Deterministic byte stream covering all 256 values (LCG).
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t s = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& b : v) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(s >> 56);
  }
  return v;
}

TEST(SimdPack, EveryTierMatchesScalarOracleAcrossWidths) {
  // Widths 1..257 cover every vector-width remainder class (16, 32, 64)
  // plus multi-word rows; exact-size heap rows make any overread a
  // heap-buffer-overflow under ASan (the no-overread kernel contract).
  const PackKernels& scalar = pack_kernels(SimdTier::Scalar);
  for (const SimdTier tier : runnable_tiers()) {
    const PackKernels& kernels = pack_kernels(tier);
    for (Coord width = 1; width <= 257; ++width) {
      // Sparse-ish bytes so both zero and nonzero lanes occur.
      std::vector<std::uint8_t> px =
          random_bytes(static_cast<std::size_t>(width),
                       static_cast<std::uint64_t>(width) * 31 + 7);
      for (std::size_t i = 0; i < px.size(); i += 3) px[i] = 0;
      const std::size_t nwords = (static_cast<std::size_t>(width) + 63) / 64;
      constexpr std::uint64_t kSentinel = 0xDEADBEEFDEADBEEFULL;
      std::vector<std::uint64_t> want(nwords + 1, kSentinel);
      std::vector<std::uint64_t> got(nwords + 1, kSentinel);
      scalar.pack_row(px.data(), width, want.data());
      kernels.pack_row(px.data(), width, got.data());
      for (std::size_t w = 0; w < nwords; ++w) {
        ASSERT_EQ(got[w], want[w]) << to_string(tier) << " width " << width
                                   << " word " << w;
      }
      ASSERT_EQ(got[nwords], kSentinel) << to_string(tier) << " width "
                                        << width << " wrote past the tail";
      for (const std::uint8_t cutoff : {0, 1, 127, 128, 200, 254, 255}) {
        std::fill(want.begin(), want.end(), kSentinel);
        std::fill(got.begin(), got.end(), kSentinel);
        scalar.pack_row_threshold(px.data(), width, cutoff, want.data());
        kernels.pack_row_threshold(px.data(), width, cutoff, got.data());
        for (std::size_t w = 0; w < nwords; ++w) {
          ASSERT_EQ(got[w], want[w])
              << to_string(tier) << " width " << width << " cutoff "
              << int{cutoff} << " word " << w;
        }
        ASSERT_EQ(got[nwords], kSentinel)
            << to_string(tier) << " cutoff " << int{cutoff};
      }
    }
  }
}

TEST(SimdPack, ThresholdKernelsExhaustiveOverPixelAndCutoff) {
  // All 256 x 256 (pixel value, cutoff) pairs through every runnable
  // tier: a 256-wide row holding every byte value, checked bit-for-bit
  // against the strict > compare.
  std::vector<std::uint8_t> px(256);
  for (int v = 0; v < 256; ++v) px[static_cast<std::size_t>(v)] =
      static_cast<std::uint8_t>(v);
  for (const SimdTier tier : runnable_tiers()) {
    const PackKernels& kernels = pack_kernels(tier);
    std::vector<std::uint64_t> words(4);
    for (int cutoff = 0; cutoff < 256; ++cutoff) {
      kernels.pack_row_threshold(px.data(), 256,
                                 static_cast<std::uint8_t>(cutoff),
                                 words.data());
      for (int v = 0; v < 256; ++v) {
        const bool bit = (words[static_cast<std::size_t>(v) / 64] >>
                          (static_cast<std::size_t>(v) % 64)) & 1u;
        ASSERT_EQ(bit, v > cutoff)
            << to_string(tier) << " pixel " << v << " cutoff " << cutoff;
      }
    }
  }
}

TEST(SimdPack, StridedSubviewEncodesIdenticallyAcrossTiers) {
  // Pitch-strided ROI windows through RowBits::encode: the words of a
  // subview row must match a packed copy of the same pixels, regardless
  // of the dispatched tier (the active tier is whatever the host runs —
  // the per-tier kernels are covered above; this pins the strided entry).
  const BinaryImage parent = gen::uniform_noise(24, 300, 0.5, 31);
  const ConstImageView whole = parent;
  for (const auto& [r0, c0, nr, nc] : std::vector<std::array<Coord, 4>>{
           {2, 3, 10, 257}, {0, 299, 5, 1}, {5, 64, 4, 130}}) {
    const ConstImageView roi = whole.subview(r0, c0, nr, nc);
    for (Coord r = 0; r < nr; ++r) {
      BinaryImage packed(1, nc);
      for (Coord c = 0; c < nc; ++c) packed(0, c) = roi(r, c);
      RowBits from_roi;
      RowBits from_packed;
      from_roi.encode(roi, r, 0, nc);
      from_packed.encode(packed, 0, 0, nc);
      ASSERT_EQ(from_roi.words().size(), from_packed.words().size());
      for (std::size_t w = 0; w < from_roi.words().size(); ++w) {
        ASSERT_EQ(from_roi.words()[w], from_packed.words()[w])
            << "roi " << r0 << "," << c0 << " row " << r << " word " << w;
      }
    }
  }
}

TEST(RowBits, EncodeThresholdMatchesIm2bwPlusEncode) {
  // The fused grayscale encoder must produce the words that binarizing
  // first (im2bw) and then packing would — for every level, including the
  // extremes where the whole row is background.
  const Coord cols = 197;
  GrayImage gray(6, cols);
  std::vector<std::uint8_t> bytes =
      random_bytes(static_cast<std::size_t>(6 * cols), 99);
  for (Coord r = 0; r < 6; ++r) {
    for (Coord c = 0; c < cols; ++c) {
      gray(r, c) = bytes[static_cast<std::size_t>(r * cols + c)];
    }
  }
  for (const double level : {0.0, 0.25, 0.5, 0.77, 1.0}) {
    const BinaryImage bw = im2bw(gray, level);
    const auto cutoff = static_cast<std::uint8_t>(level * 255.0);
    for (Coord r = 0; r < 6; ++r) {
      RowBits fused;
      RowBits oracle;
      fused.encode_threshold(gray, r, 0, cols, cutoff);
      oracle.encode(bw, r, 0, cols);
      ASSERT_EQ(fused.words().size(), oracle.words().size());
      for (std::size_t w = 0; w < fused.words().size(); ++w) {
        ASSERT_EQ(fused.words()[w], oracle.words()[w])
            << "level " << level << " row " << r << " word " << w;
      }
    }
  }
}

TEST(Runs, FusedThresholdExtractionMatchesBinarizedOracle) {
  // RunBuffer::extract with a threshold must yield exactly the runs of
  // the binarized image, including on strided ROI windows.
  const GrayImage gray = gen::plasma(40, 170, 12);
  for (const int cutoff : {0, 80, 127, 200, 255}) {
    BinaryImage bw(gray.rows(), gray.cols());
    for (Coord r = 0; r < gray.rows(); ++r) {
      for (Coord c = 0; c < gray.cols(); ++c) {
        bw(r, c) = gray(r, c) > cutoff ? 1 : 0;
      }
    }
    RunBuffer fused;
    fused.extract(gray, 3, 37, 5, 166, cutoff);
    RunBuffer oracle;
    oracle.extract(bw, 3, 37, 5, 166);
    ASSERT_EQ(fused.size(), oracle.size()) << "cutoff " << cutoff;
    for (Coord r = 3; r < 37; ++r) {
      expect_same_runs(fused.row(r), oracle.row(r),
                       "cutoff " + std::to_string(cutoff) + " row " +
                           std::to_string(r));
    }
  }
}

TEST(Runs, ExtractionEdgeWidthsMatchNaive) {
  // Widths straddling the 64-pixel word size, including the exact
  // boundary, one under/over, and multi-word rows.
  const std::vector<Coord> widths = {1,  2,  7,  63, 64, 65,
                                     97, 127, 128, 130, 191, 257};
  for (const Coord width : widths) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const BinaryImage image = gen::uniform_noise(3, width, 0.5, seed);
      expect_extraction_matches_naive(image, 0, 3, 0, width,
                                      "width " + std::to_string(width) +
                                          " seed " + std::to_string(seed));
    }
    // All-foreground: one maximal run spanning every word boundary.
    const BinaryImage full(2, width, 1);
    RunBuffer buffer;
    buffer.extract(full, 0, 2, 0, width);
    ASSERT_EQ(buffer.size(), 2u) << width;
    EXPECT_EQ(buffer.row(0).front().col_begin, 0) << width;
    EXPECT_EQ(buffer.row(0).front().col_end, width) << width;
    // All-background: no runs at all.
    const BinaryImage empty(2, width, 0);
    buffer.extract(empty, 0, 2, 0, width);
    EXPECT_EQ(buffer.size(), 0u) << width;
    // Alternating 1-pixel runs: the worst case for run counts.
    BinaryImage alt(1, width);
    for (Coord c = 0; c < width; c += 2) alt(0, c) = 1;
    buffer.extract(alt, 0, 1, 0, width);
    EXPECT_EQ(buffer.size(), static_cast<std::size_t>((width + 1) / 2))
        << width;
    for (const paremsp::Run& run : buffer.row(0)) {  // qualified: gtest's
      EXPECT_EQ(run.length(), 1) << width;           // Test::Run shadows it
      EXPECT_EQ(run.col_begin % 2, 0) << width;
    }
    expect_extraction_matches_naive(alt, 0, 1, 0, width,
                                    "alternating width " +
                                        std::to_string(width));
  }
}

TEST(Runs, ExtractionOnPitchStridedSubviews) {
  // A centered ROI of a larger raster: pitch > cols, so every row read
  // must honor the stride and never touch the surrounding margin
  // (ASan-clean by construction of the parent raster).
  const BinaryImage parent = gen::uniform_noise(40, 200, 0.45, 99);
  const ConstImageView whole = parent;
  for (const auto& [r0, c0, nr, nc] :
       std::vector<std::array<Coord, 4>>{{3, 5, 20, 130},
                                         {0, 0, 40, 200},
                                         {10, 70, 1, 65},
                                         {39, 199, 1, 1},
                                         {7, 64, 9, 64}}) {
    const ConstImageView roi = whole.subview(r0, c0, nr, nc);
    // Extraction over the ROI view (ROI-local coordinates).
    expect_extraction_matches_naive(roi, 0, nr, 0, nc,
                                    "roi " + std::to_string(r0) + "," +
                                        std::to_string(c0) + " " +
                                        std::to_string(nr) + "x" +
                                        std::to_string(nc));
    // And windowed extraction of the parent over the same rectangle must
    // produce the same runs shifted by the ROI origin.
    RunBuffer from_roi;
    from_roi.extract(roi, 0, nr, 0, nc);
    RunBuffer from_parent;
    from_parent.extract(whole, r0, r0 + nr, c0, c0 + nc);
    ASSERT_EQ(from_roi.size(), from_parent.size());
    for (Coord r = 0; r < nr; ++r) {
      const auto a = from_roi.row(r);
      const auto b = from_parent.row(r + r0);
      ASSERT_EQ(a.size(), b.size()) << "row " << r;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].col_begin + c0, b[i].col_begin);
        EXPECT_EQ(a[i].col_end + c0, b[i].col_end);
      }
    }
  }
}

TEST(Runs, BufferReuseAcrossShrinkingImages) {
  // A pooled RunBuffer must forget stale rows/runs when reused on a
  // smaller rectangle (the LabelScratch reuse path).
  RunBuffer buffer;
  const BinaryImage big(10, 100, 1);
  buffer.extract(big, 0, 10, 0, 100);
  EXPECT_EQ(buffer.size(), 10u);
  const BinaryImage small(2, 5, 1);
  buffer.extract(small, 0, 2, 0, 5);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.row(0).size(), 1u);
  EXPECT_EQ(buffer.row(1).front().col_end, 5);
  buffer.extract(small, 0, 2, 0, 5);  // idempotent on reuse
  EXPECT_EQ(buffer.size(), 2u);
}

// --- Per-unit label ranges (RunBuffer::issued_through) ---------------------

/// Feature sink recording the row of every fresh-label event: fresh(l)
/// immediately precedes the add_run of the run that took l.
struct FreshRowSink {
  std::vector<std::pair<Label, Coord>> events;
  Label pending = 0;
  void fresh(Label l) { pending = l; }
  void add_run(Label l, Coord r, Coord, Coord) {
    if (l == pending) events.emplace_back(l, r);
    pending = 0;
  }
};

TEST(Runs, IssuedThroughOnHandMadeImage) {
  // Odd height: under 8-connectivity the last unit is the lone row 4.
  const BinaryImage image = binary_from_ascii(R"(
#..#....
.#....#.
........
#......#
.#.#....
)");
  const auto prefix = [&](Connectivity connectivity) {
    RunBuffer runs;
    std::vector<Label> parents(static_cast<std::size_t>(image.size()) + 1);
    RemEquiv eq(parents);
    NoFeatureSink sink;
    scan_runs(image, runs, eq, sink, run_overlap_window(connectivity), 0,
              image.rows(), 0, image.cols());
    std::vector<Label> out;
    for (Coord r = -1; r < image.rows(); ++r) {
      out.push_back(runs.issued_through(r));
    }
    return out;
  };
  // Pairs (0,1), (2,3) and the lone row 4: three, two and one fresh
  // labels (the pair visit issues r0c0, r0c3, r1c6; r1c1 copies r0c0).
  EXPECT_EQ(prefix(Connectivity::Eight),
            (std::vector<Label>{0, 3, 3, 5, 5, 6}));
  // Rows one by one: 2, 2, 0, 2, 2 fresh labels.
  EXPECT_EQ(prefix(Connectivity::Four),
            (std::vector<Label>{0, 2, 4, 4, 6, 8}));
}

TEST(Runs, IssuedThroughHoldsEachUnitsFreshLabels) {
  const BinaryImage image = gen::uniform_noise(41, 70, 0.5, 77);
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    const Coord unit = connectivity == Connectivity::Eight ? 2 : 1;
    // A rectangle starting mid-image on an odd row, clipped to columns
    // [5, 61), ending on a lone row under 8-connectivity.
    const Coord row_begin = 3;
    const Coord row_end = 40;
    const Label base = 100;
    RunBuffer runs;
    std::vector<Label> parents(static_cast<std::size_t>(image.size()) +
                               base + 1);
    RemEquiv eq(parents, base);
    FreshRowSink sink;
    const Label used =
        scan_runs(image, runs, eq, sink, run_overlap_window(connectivity),
                  row_begin, row_end, 5, 61);
    ASSERT_GT(used, 0);
    EXPECT_EQ(runs.issued_through(row_begin - 1), 0);
    EXPECT_EQ(runs.issued_through(row_end - 1), used);
    for (Coord r = row_begin; r < row_end; ++r) {
      EXPECT_GE(runs.issued_through(r), runs.issued_through(r - 1)) << r;
      if (unit == 2 && (r - row_begin) % 2 == 1) {
        EXPECT_EQ(runs.issued_through(r), runs.issued_through(r - 1)) << r;
      }
    }
    // Every fresh label lies in its unit's range, and each range holds
    // exactly as many labels as its unit issued.
    ASSERT_EQ(sink.events.size(), static_cast<std::size_t>(used));
    std::vector<Label> per_unit(static_cast<std::size_t>(row_end - row_begin),
                                0);
    for (const auto& [label, r] : sink.events) {
      const Coord first = row_begin + (r - row_begin) / unit * unit;
      const Coord last = std::min(first + unit, row_end) - 1;
      EXPECT_GT(label - base, runs.issued_through(first - 1)) << r;
      EXPECT_LE(label - base, runs.issued_through(last)) << r;
      ++per_unit[static_cast<std::size_t>(first - row_begin)];
    }
    for (Coord first = row_begin; first < row_end; first += unit) {
      const Coord last = std::min(first + unit, row_end) - 1;
      EXPECT_EQ(runs.issued_through(last) - runs.issued_through(first - 1),
                per_unit[static_cast<std::size_t>(first - row_begin)])
          << first;
    }
  }
}

// --- Bit-identity with the sequential pixel labelers -----------------------

/// All rle labelers under test, by name, with forced multi-chunk /
/// degenerate-tile configurations (1-core CI hosts would otherwise run
/// everything single-threaded/one-tile).
std::vector<std::pair<std::string, std::unique_ptr<Labeler>>> rle_matrix(
    Connectivity connectivity) {
  std::vector<std::pair<std::string, std::unique_ptr<Labeler>>> m;
  m.emplace_back("aremsp_rle",
                 std::make_unique<AremspRleLabeler>(connectivity));
  for (const int threads : {2, 3}) {
    m.emplace_back("paremsp_rle t" + std::to_string(threads),
                   std::make_unique<ParemspRleLabeler>(
                       RleConfig{.threads = threads}, connectivity));
  }
  for (const auto& [tr, tc] :
       std::vector<std::pair<Coord, Coord>>{{1, 1}, {2, 3}, {5, 4}, {64, 64}}) {
    m.emplace_back("paremsp2d " + std::to_string(tr) + "x" +
                       std::to_string(tc),
                   std::make_unique<TiledParemspLabeler>(
                       RleConfig{.tile_rows = tr, .tile_cols = tc},
                       connectivity));
  }
  return m;
}

TEST(Runs, EightConnRleBitIdenticalToAremspOnFixtures) {
  const AremspLabeler reference;
  const auto matrix = rle_matrix(Connectivity::Eight);
  for (const auto& fixture : testing::fixtures()) {
    const LabelResponse want = reference.label(fixture.image);
    ASSERT_EQ(want.num_components, fixture.components8) << fixture.name;
    for (const auto& [name, labeler] : matrix) {
      const LabelResponse got = labeler->label(fixture.image);
      EXPECT_EQ(got.num_components, want.num_components)
          << name << " on " << fixture.name;
      EXPECT_EQ(got.labels, want.labels) << name << " on " << fixture.name;
    }
  }
}

TEST(Runs, EightConnRleBitIdenticalToAremspOnRandomMatrix) {
  const AremspLabeler reference;
  const auto matrix = rle_matrix(Connectivity::Eight);
  for (const auto& [rows, cols] : std::vector<std::pair<Coord, Coord>>{
           {1, 1}, {1, 130}, {67, 1}, {9, 17}, {31, 130}, {64, 64}}) {
    for (const double density : {0.05, 0.5, 0.8, 0.95}) {
      const BinaryImage image =
          gen::uniform_noise(rows, cols, density,
                             static_cast<std::uint64_t>(rows * 1000 + cols));
      const LabelResponse want = reference.label(image);
      for (const auto& [name, labeler] : matrix) {
        const LabelResponse got = labeler->label(image);
        const std::string context = name + " " + std::to_string(rows) + "x" +
                                    std::to_string(cols) + " d" +
                                    std::to_string(density);
        EXPECT_EQ(got.num_components, want.num_components) << context;
        EXPECT_EQ(got.labels, want.labels) << context;
      }
    }
  }
}

TEST(Runs, FourConnRleBitIdenticalToCclremsp) {
  // 4-connectivity numbers components in raster first-appearance order —
  // the numbering of the one-line pixel algorithms — so the rle output
  // must match CCLREMSP bit for bit, for every rle configuration.
  const CclremspLabeler reference(Connectivity::Four);
  const auto matrix = rle_matrix(Connectivity::Four);
  for (const auto& fixture : testing::fixtures()) {
    const LabelResponse want = reference.label(fixture.image);
    ASSERT_EQ(want.num_components, fixture.components4) << fixture.name;
    for (const auto& [name, labeler] : matrix) {
      const LabelResponse got = labeler->label(fixture.image);
      EXPECT_EQ(got.labels, want.labels) << name << " on " << fixture.name;
      EXPECT_EQ(got.num_components, want.num_components)
          << name << " on " << fixture.name;
    }
  }
}

TEST(Runs, FusedStatsMatchPostPassOracleAcrossConfigurations) {
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    const auto matrix = rle_matrix(connectivity);
    for (const std::uint64_t seed : {11ULL, 12ULL}) {
      const BinaryImage image = gen::uniform_noise(29, 70, 0.55, seed);
      for (const auto& [name, labeler] : matrix) {
        const LabelResponse ws = labeler->run(testing::stats_request(image));
        const LabelResponse plain = labeler->label(image);
        const std::string context =
            name + " " + to_string(connectivity) + " seed " +
            std::to_string(seed);
        EXPECT_EQ(ws.labels, plain.labels) << context;
        testing::expect_stats_identical(
            *ws.stats, analysis::compute_stats(ws.labels, ws.num_components),
            context);
      }
    }
  }
}

TEST(Runs, RleScratchRunStaysAllocationFree) {
  // Same contract as the pixel algorithms' scratch_reuse flag: after the
  // high-water-mark image has been seen once, repeated run(request,
  // scratch) calls must not grow the scratch again.
  for (const auto name : {"aremsp_rle", "paremsp_rle", "paremsp2d"}) {
    const auto labeler = make_labeler(algorithm_from_name(name));
    LabelScratch scratch;
    const BinaryImage image = gen::landcover_like(96, 96, 5);
    LabelResponse first = labeler->run({.input = image}, scratch);
    scratch.recycle_plane(std::move(first.labels));
    const auto grows_after_warmup = scratch.grow_count();
    for (int i = 0; i < 3; ++i) {
      LabelResponse again = labeler->run({.input = image}, scratch);
      scratch.recycle_plane(std::move(again.labels));
    }
    EXPECT_EQ(scratch.grow_count(), grows_after_warmup) << name;
  }
}

TEST(Runs, ThresholdRequestBitIdenticalToIm2bwPlusLabel) {
  // The fused gray -> bits request path: labeling a GrayImage with
  // LabelRequest::threshold must be bit-identical to binarizing with
  // im2bw at the same level and labeling the result — for every rle
  // configuration (fused) and a pixel labeler (internal binarize), both
  // connectivities, across levels including the all-background extreme.
  const GrayImage gray = gen::plasma(37, 133, 8);
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    auto matrix = rle_matrix(connectivity);
    if (connectivity == Connectivity::Eight) {
      matrix.emplace_back("aremsp (binarize fallback)",
                          std::make_unique<AremspLabeler>());
    }
    for (const double level : {0.0, 0.35, 0.5, 1.0}) {
      const BinaryImage bw = im2bw(gray, level);
      for (const auto& [name, labeler] : matrix) {
        const LabelResponse want = labeler->label(bw);
        LabelRequest request;
        request.input = gray;
        request.threshold = level;
        const LabelResponse got = labeler->run(request);
        const std::string context =
            name + " " + to_string(connectivity) + " level " +
            std::to_string(level);
        EXPECT_EQ(got.num_components, want.num_components) << context;
        EXPECT_EQ(got.labels, want.labels) << context;
      }
    }
  }
  // Out-of-range levels are rejected at validation.
  LabelRequest bad;
  bad.input = gray;
  bad.threshold = 1.5;
  EXPECT_THROW((void)AremspRleLabeler().run(bad), PreconditionError);
}

TEST(Runs, ThresholdRequestWithStatsMatchesBinarizedOracle) {
  const GrayImage gray = gen::plasma(24, 61, 5);
  const BinaryImage bw = im2bw(gray, 0.5);
  const ParemspRleLabeler labeler(RleConfig{.threads = 2});
  LabelRequest request;
  request.input = gray;
  request.threshold = 0.5;
  request.outputs.stats = true;
  const LabelResponse got = labeler.run(request);
  const LabelResponse want = labeler.run(testing::stats_request(bw));
  EXPECT_EQ(got.labels, want.labels);
  ASSERT_TRUE(got.stats.has_value());
  testing::expect_stats_identical(*got.stats, *want.stats,
                                  "fused threshold stats");
}

// --- Sharded engine ----------------------------------------------------------

TEST(Sharded, RunScanBitIdenticalToAremspAcrossGeometries) {
  const Coord rows = 61, cols = 83;
  const AremspLabeler reference;
  engine::LabelingEngine eng({.workers = 2});
  for (const auto& [tr, tc] : std::vector<std::pair<Coord, Coord>>{
           {1, cols}, {rows, 1}, {7, 9}, {1024, 1024}, {1, 1}, {16, 16}}) {
    for (const std::uint64_t seed : {0ULL, 1ULL, 3ULL}) {
      const BinaryImage image =
          seed == 1 ? gen::spiral(rows, cols, 2, 3)
                    : gen::uniform_noise(rows, cols, 0.5, seed + 7);
      const LabelResponse want = reference.label(image);
      LabelRequest request;
      request.input = image;
      request.shard = ShardOptions{.tile_rows = tr, .tile_cols = tc};
      const LabelResponse got = eng.submit(request).get();
      const std::string context = "tiles " + std::to_string(tr) + "x" +
                                  std::to_string(tc) + " seed " +
                                  std::to_string(seed);
      EXPECT_EQ(got.num_components, want.num_components) << context;
      EXPECT_EQ(got.labels, want.labels) << context;
    }
  }
}

TEST(Sharded, RunScanWithStatsMatchesPostPassOracle) {
  engine::LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(64, 96, 21);
  LabelRequest request = testing::stats_request(image);
  request.shard = ShardOptions{.tile_rows = 16, .tile_cols = 16};
  const LabelResponse got = eng.submit(request).get();
  testing::expect_stats_identical(
      *got.stats, analysis::compute_stats(got.labels, got.num_components),
      "sharded runs with stats");
}

TEST(Sharded, RunScanSupportsFourConnectivityViaRequestOverride) {
  // The sharded pipeline is validated against paremsp2d, which admits
  // 4-connectivity and numbers components like CCLREMSP.
  engine::LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::uniform_noise(40, 56, 0.5, 5);
  LabelRequest request;
  request.input = image;
  request.connectivity = Connectivity::Four;
  request.shard = ShardOptions{.tile_rows = 13, .tile_cols = 11};
  const LabelResponse response = eng.submit(request).get();
  const LabelResponse want =
      CclremspLabeler(Connectivity::Four).label(image);
  EXPECT_EQ(response.num_components, want.num_components);
  EXPECT_EQ(response.labels, want.labels);
  const auto v = analysis::validate_labeling(
      image, response.labels, response.num_components, Connectivity::Four);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(Sharded, ThresholdRequestMatchesBinarizedOracle) {
  // Sharded fusion threads the cutoff into the per-tile run scan (no
  // binary plane); it must be bit-identical to sharding im2bw's output.
  engine::LabelingEngine eng({.workers = 2});
  const GrayImage gray = gen::plasma(45, 77, 3);
  const BinaryImage bw = im2bw(gray, 0.5);
  const engine::ShardOptions opts{.tile_rows = 13, .tile_cols = 20};
  LabelRequest request;
  request.input = bw;
  request.shard = opts;
  const LabelResponse want = eng.submit(request).get();
  request.input = gray;
  request.threshold = 0.5;
  const LabelResponse got = eng.submit(request).get();
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.labels, want.labels);
}

TEST(Sharded, RunScanLabelOutAndDegenerateImages) {
  engine::LabelingEngine eng({.workers = 2});
  // label_out routed through the per-tile rewrite (strided destination).
  const BinaryImage image = gen::uniform_noise(24, 30, 0.5, 9);
  LabelImage big(30, 40, -1);
  LabelRequest request;
  request.input = image;
  request.label_out = MutableImageView(big).subview(2, 3, 24, 30);
  request.shard = ShardOptions{.tile_rows = 7, .tile_cols = 8};
  const LabelResponse response = eng.submit(request).get();
  EXPECT_TRUE(response.labels.empty());
  const LabelResponse want = AremspLabeler().label(image);
  for (Coord r = 0; r < 24; ++r) {
    for (Coord c = 0; c < 30; ++c) {
      ASSERT_EQ(big(r + 2, c + 3), want.labels(r, c)) << r << "," << c;
    }
  }
  // The margin must be untouched.
  EXPECT_EQ(big(0, 0), -1);
  EXPECT_EQ(big(29, 39), -1);

  // Degenerate inputs complete cleanly.
  for (const auto& [rows, cols] :
       std::vector<std::pair<Coord, Coord>>{{0, 0}, {0, 5}, {5, 0}, {1, 1}}) {
    const BinaryImage degenerate(rows, cols, 1);
    LabelRequest degenerate_request;
    degenerate_request.input = degenerate;
    degenerate_request.shard = ShardOptions{};
    const LabelResponse got = eng.submit(degenerate_request).get();
    EXPECT_EQ(got.num_components, rows > 0 && cols > 0 ? 1 : 0);
  }
}

}  // namespace
}  // namespace paremsp
