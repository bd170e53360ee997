// Determinism and reproducibility: golden values pin the PRNG stream and
// generator outputs across platforms/compilers (the benchmark datasets
// must be identical everywhere for numbers to be comparable), and the
// labelers are checked for repeat- and concurrency-determinism.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "common/prng.hpp"
#include "core/paremsp_all.hpp"

namespace paremsp {
namespace {

// --- Golden PRNG stream -----------------------------------------------------

TEST(GoldenValues, Xoshiro256StreamSeed42) {
  Xoshiro256 rng(42);
  EXPECT_EQ(rng(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng(), 0xae17533239e499a1ULL);
  EXPECT_EQ(rng(), 0xecb8ad4703b360a1ULL);
}

TEST(GoldenValues, SplitMix64Seed123) {
  SplitMix64 sm(123);
  EXPECT_EQ(sm(), 0xb4dc9bd462de412bULL);
}

// FNV-1a over the pixel bytes.
std::uint64_t checksum(const BinaryImage& img) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto px : img.pixels()) {
    h ^= px;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(GoldenValues, GeneratorChecksums) {
  // If any of these change, the benchmark inputs changed (DESIGN.md §2
  // S2): re-run the paper benches deliberately, never accidentally.
  EXPECT_EQ(checksum(gen::uniform_noise(64, 64, 0.5, 7)),
            0x70e6d8085c57424aULL);
  EXPECT_EQ(checksum(gen::landcover_like(64, 64, 7)),
            0x194b2d787d52d1abULL);
  EXPECT_EQ(checksum(gen::texture_like(64, 64, 7)), 0x791680ae0977e325ULL);
  EXPECT_EQ(checksum(gen::maze(33, 33, 7)), 0xf001ebebbb4dcfdfULL);
}

// --- Labeler determinism -------------------------------------------------------

TEST(Determinism, RepeatedRunsAreIdentical) {
  const BinaryImage image = gen::misc_like(64, 64, 21);
  for (const auto& info : algorithm_catalog()) {
    SCOPED_TRACE(std::string(info.name));
    const auto labeler = make_labeler(info.id);
    const auto first = labeler->label(image);
    for (int i = 0; i < 3; ++i) {
      const auto again = labeler->label(image);
      EXPECT_EQ(again.labels, first.labels);
      EXPECT_EQ(again.num_components, first.num_components);
    }
  }
}

TEST(Determinism, ConcurrentLabelCallsOnOneLabeler) {
  // Labeler::label is const and must be safe to call from several threads
  // at once (the PAREMSP lock pool is shared; stripes are reusable).
  const BinaryImage image = gen::landcover_like(96, 96, 4);
  const ParemspLabeler labeler(ParemspConfig{2});
  const auto expected = labeler.label(image);

  std::vector<std::future<LabelResponse>> futures;
  futures.reserve(4);
  for (int i = 0; i < 4; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return labeler.label(image);
    }));
  }
  for (auto& f : futures) {
    const auto got = f.get();
    EXPECT_EQ(got.labels, expected.labels);
    EXPECT_EQ(got.num_components, expected.num_components);
  }
}

TEST(Determinism, ResultsIndependentOfPriorInputs) {
  // Labeling B after A must equal labeling B fresh (no state leaks).
  const BinaryImage a = gen::spiral(48, 48, 2, 3);
  const BinaryImage b = gen::uniform_noise(48, 48, 0.5, 3);
  for (const auto& info : algorithm_catalog()) {
    SCOPED_TRACE(std::string(info.name));
    const auto fresh = make_labeler(info.id)->label(b);
    const auto reused_labeler = make_labeler(info.id);
    (void)reused_labeler->label(a);
    const auto after = reused_labeler->label(b);
    EXPECT_EQ(after.labels, fresh.labels);
  }
}

TEST(Determinism, GeneratorsIndependentOfCallOrder) {
  // Each generator call owns its RNG: interleaving calls cannot perturb
  // the streams.
  const auto x1 = gen::uniform_noise(16, 16, 0.5, 1);
  (void)gen::landcover_like(32, 32, 9);
  const auto x2 = gen::uniform_noise(16, 16, 0.5, 1);
  EXPECT_EQ(x1, x2);
}

}  // namespace
}  // namespace paremsp
