// Tests for the algorithm registry/factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/component_stats.hpp"
#include "baselines/arun.hpp"
#include "baselines/flood_fill.hpp"
#include "common/contracts.hpp"
#include "core/aremsp.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "fixtures.hpp"

namespace paremsp {
namespace {

TEST(Registry, CatalogIsCompleteAndUnique) {
  // Pinned by name, so adding or dropping an algorithm is a deliberate
  // edit here rather than a count bump.
  const auto catalog = algorithm_catalog();
  std::set<std::string_view> names;
  std::set<Algorithm> ids;
  for (const auto& info : catalog) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
    names.insert(info.name);
    ids.insert(info.id);
  }
  EXPECT_EQ(names, (std::set<std::string_view>{
                       "floodfill", "arun", "ccllrpc", "cclremsp", "aremsp",
                       "paremsp", "paremsp2d", "aremsp_rle", "paremsp_rle"}));
  EXPECT_EQ(names.size(), catalog.size());
  EXPECT_EQ(ids.size(), catalog.size());
}

TEST(Registry, PaperAlgorithmsAreFlagged) {
  std::set<std::string_view> proposed;
  for (const auto& info : algorithm_catalog()) {
    if (info.proposed_in_paper) proposed.insert(info.name);
  }
  EXPECT_EQ(proposed,
            (std::set<std::string_view>{"cclremsp", "aremsp", "paremsp"}));
}

TEST(Registry, ParallelAlgorithmsAreFlagged) {
  std::set<std::string_view> parallel;
  for (const auto& info : algorithm_catalog()) {
    if (info.parallel) parallel.insert(info.name);
  }
  EXPECT_EQ(parallel,
            (std::set<std::string_view>{"paremsp", "paremsp2d",
                                        "paremsp_rle"}));
}

TEST(Registry, RleAlgorithmsAreCatalogedForTheRegistryDrivenSuites) {
  // The exhaustive / differential / metamorphic suites enumerate
  // algorithm_catalog(), so cataloging the run-based algorithms IS what
  // opts them into those suites — this test pins that they are present
  // with the flags those suites key off (both connectivities, fused
  // stats, scratch reuse).
  for (const auto name : {"aremsp_rle", "paremsp_rle", "paremsp2d"}) {
    const Algorithm id = algorithm_from_name(name);
    const AlgorithmInfo& info = algorithm_info(id);
    EXPECT_TRUE(info.supports_four_connectivity) << name;
    EXPECT_TRUE(info.fused_stats) << name;
    EXPECT_TRUE(info.scratch_reuse) << name;
    EXPECT_FALSE(info.proposed_in_paper) << name;  // extension, not paper
    const auto labeler = make_labeler(id);
    EXPECT_EQ(labeler->name(), info.name);
  }
  EXPECT_EQ(algorithm_info(Algorithm::AremspRle).parallel, false);
  EXPECT_EQ(algorithm_info(Algorithm::ParemspRle).parallel, true);
  EXPECT_EQ(algorithm_info(Algorithm::ParemspTiled).parallel, true);
}

TEST(Registry, Paremsp2dIsTheOneTiledLabeler) {
  // The 2-D tiled labeler is run-based and has one name: the retired
  // "_rle" alias no longer resolves, and paremsp2d admits 4-connectivity.
  const std::string retired_alias = std::string("paremsp2d") + "_rle";
  EXPECT_THROW((void)algorithm_from_name(retired_alias), PreconditionError);
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    if (info.name.starts_with("paremsp2d")) {
      EXPECT_EQ(info.name, "paremsp2d");
    }
  }
  EXPECT_EQ(algorithm_from_name("paremsp2d"), Algorithm::ParemspTiled);
  EXPECT_TRUE(algorithm_info(Algorithm::ParemspTiled)
                  .supports(Connectivity::Four));
  EXPECT_NO_THROW((void)make_labeler(
      Algorithm::ParemspTiled,
      LabelerOptions{.connectivity = Connectivity::Four}));
}

TEST(Registry, NamesRoundTrip) {
  for (const auto& info : algorithm_catalog()) {
    EXPECT_EQ(algorithm_from_name(info.name), info.id);
    EXPECT_EQ(algorithm_info(info.id).name, info.name);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)algorithm_from_name("does-not-exist"),
               PreconditionError);
  EXPECT_THROW((void)algorithm_from_name(""), PreconditionError);
}

TEST(Registry, FactoryProducesMatchingNames) {
  for (const auto& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    ASSERT_NE(labeler, nullptr);
    EXPECT_EQ(labeler->name(), info.name);
    EXPECT_EQ(labeler->is_parallel(), info.parallel);
  }
}

TEST(Registry, FactoryForwardsParemspConfig) {
  const auto labeler = make_labeler(Algorithm::Paremsp, {.threads = 3});
  const auto* paremsp = dynamic_cast<const ParemspLabeler*>(labeler.get());
  ASSERT_NE(paremsp, nullptr);
  EXPECT_EQ(paremsp->config().threads, 3);
}

TEST(Registry, FourConnectivityGatingMatchesCatalog) {
  const LabelerOptions four{.connectivity = Connectivity::Four};
  for (const auto& info : algorithm_catalog()) {
    if (info.supports_four_connectivity) {
      EXPECT_NO_THROW((void)make_labeler(info.id, four)) << info.name;
    } else {
      EXPECT_THROW((void)make_labeler(info.id, four), PreconditionError)
          << info.name;
    }
  }
}

TEST(Registry, SupportsIsTheSingleSourceOfTruth) {
  for (const auto& info : algorithm_catalog()) {
    // Everything labels under 8-connectivity; 4-connectivity follows the
    // catalog flag — supports() is just the queryable form of it.
    EXPECT_TRUE(info.supports(Connectivity::Eight)) << info.name;
    EXPECT_EQ(info.supports(Connectivity::Four),
              info.supports_four_connectivity)
        << info.name;
    // require_supported throws exactly when supports() says no.
    if (info.supports(Connectivity::Four)) {
      EXPECT_NO_THROW(require_supported(info.id, Connectivity::Four));
    } else {
      EXPECT_THROW(require_supported(info.id, Connectivity::Four),
                   PreconditionError);
    }
  }
}

TEST(Registry, CatalogCapabilityFlagsAreHonest) {
  // The exhaustive/differential/metamorphic suites trust the catalog: a
  // flag that overstates what an algorithm does would make those suites
  // silently skip (or mislabel) it. Probe every algorithm against the
  // flood-fill oracle on an image where 4- and 8-connectivity disagree
  // maximally — a checkerboard is ONE component 8-connected and all
  // isolated pixels 4-connected — so an algorithm lying about
  // connectivity support cannot return the right count by accident.
  BinaryImage image(9, 9, 0);
  for (Coord r = 0; r < image.rows(); ++r) {
    for (Coord c = 0; c < image.cols(); ++c) {
      if ((r + c) % 2 == 0) image(r, c) = 1;
    }
  }
  for (const auto& info : algorithm_catalog()) {
    for (const Connectivity conn : {Connectivity::Four, Connectivity::Eight}) {
      if (!info.supports(conn)) {
        // An algorithm that cannot label under `conn` must fail
        // require_supported — never construct and mislabel.
        EXPECT_THROW(require_supported(info.id, conn), PreconditionError)
            << info.name;
        continue;
      }
      const LabelerOptions options{.connectivity = conn};
      const auto labeler = make_labeler(info.id, options);
      const auto oracle = FloodFillLabeler(conn).label(image);
      const LabelResponse result = labeler->label(image);
      EXPECT_EQ(result.num_components, oracle.num_components)
          << info.name << " under " << to_string(conn);

      // fused_stats honesty: fused or fallback, a stats request must be
      // value-identical to label() + the post-pass oracle.
      const LabelResponse ws = labeler->run(testing::stats_request(image));
      EXPECT_EQ(ws.num_components, result.num_components);
      testing::expect_stats_identical(
          *ws.stats, analysis::compute_stats(ws.labels, ws.num_components),
          std::string(info.name));

      // scratch_reuse honesty: a warm LabelScratch (result plane handed
      // back, like the engine's arenas do) must serve a repeat of the
      // same image allocation-free, with identical output.
      if (info.scratch_reuse) {
        LabelScratch scratch;
        LabelResponse first = labeler->run({.input = image}, scratch);
        const std::vector<Label> expected(first.labels.pixels().begin(),
                                          first.labels.pixels().end());
        scratch.recycle_plane(std::move(first.labels));
        const std::uint64_t warm_grows = scratch.grow_count();
        const LabelResponse second = labeler->run({.input = image}, scratch);
        EXPECT_EQ(scratch.grow_count(), warm_grows)
            << info.name << " grew a warm scratch";
        EXPECT_TRUE(std::ranges::equal(expected, second.labels.pixels()))
            << info.name;
      }
    }
  }
}

TEST(Registry, DirectConstructionRejectsLikeTheFactory) {
  // Every labeler validates through the shared Labeler base, so direct
  // construction and make_labeler reject an unsupported connectivity with
  // the same PreconditionError.
  EXPECT_THROW(AremspLabeler{Connectivity::Four}, PreconditionError);
  EXPECT_THROW(ArunLabeler{Connectivity::Four}, PreconditionError);
}

TEST(Registry, PerRequestConnectivityGatesLikeConstruction) {
  // LabelerOptions.connectivity is only the DEFAULT: a LabelRequest may
  // override it per call, and the override passes through the same
  // require_supported gate — catalog-driven, uniform PreconditionError.
  const BinaryImage image(6, 6, 1);
  for (const auto& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);  // 8-connectivity default
    EXPECT_EQ(labeler->default_connectivity(), Connectivity::Eight);
    EXPECT_EQ(labeler->algorithm(), info.id);
    LabelRequest request;
    request.input = image;
    request.connectivity = Connectivity::Four;
    if (info.supports_four_connectivity) {
      EXPECT_NO_THROW((void)labeler->run(request)) << info.name;
    } else {
      EXPECT_THROW((void)labeler->run(request), PreconditionError)
          << info.name;
    }
  }
}

}  // namespace
}  // namespace paremsp
