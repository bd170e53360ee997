// The coarse-to-fine label-propagation backend (src/propagate/).
//
// Every suite here is named Propagate* on purpose: the CI TSan job's
// positive filter selects them (the parallel labeler runs its kernels on
// raw std::thread, so the scanning/analysis/labeling races are exactly
// the coverage that job exists for), and the full set also runs under
// ASan with the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "baselines/flood_fill.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "engine/engine.hpp"
#include "engine/stream_session.hpp"
#include "image/connectivity.hpp"
#include "image/generators.hpp"
#include "image/view.hpp"
#include "propagate/propagate_kernels.hpp"
#include "propagate/propagate_labeler.hpp"
#include "stream/slab_session.hpp"

namespace paremsp {
namespace {

using propagate::PropagateGrid;

/// The union-find reference the backend must be bit-identical to:
/// sequential AREMSP for 8-connectivity, CCLREMSP for 4.
LabelResponse reference_labeling(const BinaryImage& image,
                                 Connectivity connectivity) {
  if (connectivity == Connectivity::Eight) {
    return AremspLabeler(Connectivity::Eight).label(image);
  }
  return CclremspLabeler(Connectivity::Four).label(image);
}

void expect_bit_identical(const LabelResponse& got, const LabelResponse& want,
                          const std::string& context) {
  ASSERT_EQ(got.num_components, want.num_components) << context;
  ASSERT_TRUE(std::ranges::equal(got.labels.pixels(), want.labels.pixels()))
      << context;
}

/// Class graph of an image under a block geometry: one node per in-block
/// connected component ("class" — exactly what init_blocks collapses each
/// cell to), edges where two classes touch across a block boundary. The
/// convergence oracle is stated over this graph: one propagation round
/// moves the component minimum at least one class-graph BFS layer, so
///   passes <= max component class-diameter + 1 (+1 to see no change).
struct ClassGraph {
  std::vector<int> class_of;               // per pixel, -1 background
  std::vector<std::set<int>> adjacency;    // cross-boundary class edges
};

ClassGraph build_class_graph(const BinaryImage& image, Connectivity conn,
                             Coord block_rows, Coord block_cols) {
  const Coord rows = image.rows();
  const Coord cols = image.cols();
  ClassGraph g;
  g.class_of.assign(static_cast<std::size_t>(rows) * cols, -1);
  const auto idx = [cols](Coord r, Coord c) {
    return static_cast<std::size_t>(r) * cols + c;
  };
  const auto offsets = neighbors(conn);
  int classes = 0;
  for (Coord r0 = 0; r0 < rows; r0 += block_rows) {
    for (Coord c0 = 0; c0 < cols; c0 += block_cols) {
      const Coord r1 = std::min<Coord>(r0 + block_rows, rows);
      const Coord c1 = std::min<Coord>(c0 + block_cols, cols);
      for (Coord r = r0; r < r1; ++r) {
        for (Coord c = c0; c < c1; ++c) {
          if (image(r, c) == 0 || g.class_of[idx(r, c)] != -1) continue;
          // BFS one in-block component.
          const int id = classes++;
          std::deque<std::pair<Coord, Coord>> queue{{r, c}};
          g.class_of[idx(r, c)] = id;
          while (!queue.empty()) {
            const auto [pr, pc] = queue.front();
            queue.pop_front();
            for (const Offset o : offsets) {
              const Coord rr = pr + o.dr;
              const Coord cc = pc + o.dc;
              if (rr < r0 || rr >= r1 || cc < c0 || cc >= c1) continue;
              if (image(rr, cc) == 0 || g.class_of[idx(rr, cc)] != -1) {
                continue;
              }
              g.class_of[idx(rr, cc)] = id;
              queue.emplace_back(rr, cc);
            }
          }
        }
      }
    }
  }
  g.adjacency.assign(static_cast<std::size_t>(classes), {});
  for (Coord r = 0; r < rows; ++r) {
    for (Coord c = 0; c < cols; ++c) {
      const int a = g.class_of[idx(r, c)];
      if (a == -1) continue;
      for (const Offset o : offsets) {
        const Coord rr = r + o.dr;
        const Coord cc = c + o.dc;
        if (rr < 0 || rr >= rows || cc < 0 || cc >= cols) continue;
        const int b = g.class_of[idx(rr, cc)];
        if (b == -1 || b == a) continue;
        g.adjacency[static_cast<std::size_t>(a)].insert(b);
        g.adjacency[static_cast<std::size_t>(b)].insert(a);
      }
    }
  }
  return g;
}

/// Longest shortest path between two classes of the same component,
/// maximized over components (all-pairs via BFS from every class).
std::int64_t class_graph_diameter(const ClassGraph& g) {
  const std::size_t n = g.adjacency.size();
  std::int64_t diameter = 0;
  std::vector<std::int64_t> dist(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::deque<std::size_t> queue{s};
    dist[s] = 0;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      diameter = std::max(diameter, dist[u]);
      for (const int v : g.adjacency[u]) {
        if (dist[static_cast<std::size_t>(v)] == -1) {
          dist[static_cast<std::size_t>(v)] = dist[u] + 1;
          queue.push_back(static_cast<std::size_t>(v));
        }
      }
    }
  }
  return diameter;
}

// --- Kernel isolation -------------------------------------------------------

TEST(PropagateKernels, InitBlocksResolvesCellsAndMarksHeads) {
  // Two rows, 1x4 cells. Row 0: one run spanning the cell seam; row 1: a
  // run wholly inside the second cell. init_blocks must collapse each
  // in-cell run to its leftmost index and leave the seam unresolved.
  //   pixels: 1 1 1 1 | 1 1 0 0
  //           0 0 0 0 | 0 1 1 0
  BinaryImage image(2, 8, 0);
  for (Coord c = 0; c < 6; ++c) image(0, c) = 1;
  image(1, 5) = image(1, 6) = 1;
  LabelImage labels(2, 8);
  std::vector<Label> parents(17, -1);
  const PropagateGrid grid{2, 8, 1, 4};
  ASSERT_EQ(grid.blocks(), 4);
  const Label heads = propagate::init_blocks(
      image, labels, parents, grid, Connectivity::Eight, 0, grid.blocks());
  EXPECT_EQ(heads, 3);  // (0,0), (0,4), (1,5)
  for (Coord c = 0; c < 4; ++c) EXPECT_EQ(labels(0, c), 1);
  EXPECT_EQ(labels(0, 4), 5);
  EXPECT_EQ(labels(0, 5), 5);
  EXPECT_EQ(labels(1, 5), 14);
  EXPECT_EQ(labels(1, 6), 14);
  // Heads reference themselves; absorbed pixels' entries are cleared.
  EXPECT_EQ(parents[1], 1);
  EXPECT_EQ(parents[5], 5);
  EXPECT_EQ(parents[14], 14);
  for (const Label l : {2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16}) {
    EXPECT_EQ(parents[static_cast<std::size_t>(l)], 0) << l;
  }
}

TEST(PropagateKernels, GridGeometryCoversPartialBands) {
  const PropagateGrid grid{10, 13, 4, 5};
  EXPECT_EQ(grid.grid_rows(), 3);  // 4 + 4 + 2
  EXPECT_EQ(grid.grid_cols(), 3);  // 5 + 5 + 3
  EXPECT_EQ(grid.blocks(), 9);
  EXPECT_EQ(grid.horizontal_lines(), 2);
  EXPECT_EQ(grid.boundary_lines(), 4);
}

// --- Convergence oracle -----------------------------------------------------

struct OracleCase {
  const char* name;
  BinaryImage image;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  cases.push_back({"noise_dense", gen::uniform_noise(96, 96, 0.7, 11)});
  cases.push_back({"noise_sparse", gen::uniform_noise(96, 96, 0.2, 12)});
  cases.push_back({"checkerboard", gen::checkerboard(64, 64, 1)});
  cases.push_back({"rings", gen::concentric_rings(80, 80, 2)});
  cases.push_back({"maze", gen::maze(81, 81, 7)});
  cases.push_back({"spiral", gen::spiral(96, 96, 1, 2)});
  return cases;
}

TEST(PropagateConvergence, PassCountBoundedByClassGraphDiameter) {
  // One propagation round carries the component minimum at least one BFS
  // layer outward in the class graph, so the pass counter must stay
  // within the max component class-diameter, +1 for the final round that
  // observes no change (the fixpoint check).
  const PropagateConfig config{.block_rows = 1, .block_cols = 8};
  for (const OracleCase& oc : oracle_cases()) {
    const ClassGraph g = build_class_graph(oc.image, Connectivity::Eight,
                                           config.block_rows,
                                           config.block_cols);
    const std::int64_t diameter = class_graph_diameter(g);
    const LabelResponse result =
        PropagateLabeler(config).label(oc.image);
    const std::uint64_t passes = result.timings.counters.propagate_passes;
    EXPECT_GE(passes, 1u) << oc.name;
    EXPECT_LE(passes, static_cast<std::uint64_t>(diameter) + 2) << oc.name;
    // Heads are the provisional labels; every class is a head.
    EXPECT_EQ(result.timings.counters.provisional_labels,
              static_cast<Label>(g.adjacency.size()))
        << oc.name;
  }
}

TEST(PropagateConvergence, SpiralWorstCaseIsLogarithmic) {
  // The spiral's class graph is a single path (one snaking arm), the
  // shape that maximizes propagation rounds. On a path, pointer-jumping
  // compression provably halves the surviving class count every round
  // (survivors are local minima — never two adjacent — and contraction
  // keeps the graph a path), so the crafted worst case must converge in
  // ceil(log2(diameter)) + refine rounds, NOT the linear diameter a
  // compression-free propagation would need.
  const PropagateConfig config{.block_rows = 1, .block_cols = 8};
  const BinaryImage image = gen::spiral(192, 192, 1, 2);
  const ClassGraph g = build_class_graph(image, Connectivity::Eight,
                                         config.block_rows, config.block_cols);
  const std::int64_t diameter = class_graph_diameter(g);
  ASSERT_GE(diameter, 64) << "spiral should build a long class path";
  const LabelResponse result = PropagateLabeler(config).label(image);
  const std::uint64_t passes = result.timings.counters.propagate_passes;
  const std::uint64_t log_bound = static_cast<std::uint64_t>(
      std::ceil(std::log2(static_cast<double>(std::max<std::int64_t>(
          2, diameter)))));
  EXPECT_LE(passes, log_bound + 2);
  // And it must actually iterate — a spiral is not resolvable in the
  // coarse pass plus one exchange.
  EXPECT_GE(passes, 3u);
  expect_bit_identical(result, reference_labeling(image, Connectivity::Eight),
                       "spiral");
}

// --- Bit-identity across geometries and thread counts -----------------------

TEST(PropagateIdentity, BitIdenticalAcrossBlockGeometriesAndThreads) {
  const std::vector<std::pair<Coord, Coord>> geometries{
      {1, 1}, {1, 8}, {2, 3}, {3, 2}, {4, 4}, {7, 5}, {64, 64}};
  const std::vector<BinaryImage> images{
      gen::uniform_noise(61, 67, 0.5, 21),
      gen::uniform_noise(64, 64, 0.05, 22),
      gen::checkerboard(33, 47, 1),
      gen::spiral(64, 64, 2, 2),
  };
  for (const Connectivity conn : {Connectivity::Four, Connectivity::Eight}) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      const LabelResponse want = reference_labeling(images[i], conn);
      for (const auto& [br, bc] : geometries) {
        const PropagateConfig config{.block_rows = br, .block_cols = bc};
        const std::string context =
            "image " + std::to_string(i) + " blocks " + std::to_string(br) +
            "x" + std::to_string(bc) + " " + to_string(conn);
        expect_bit_identical(PropagateLabeler(config, conn).label(images[i]),
                             want, "seq " + context);
        for (const int threads : {1, 2, 4, 8}) {
          PropagateConfig par = config;
          par.threads = threads;
          expect_bit_identical(
              PropagateParLabeler(par, conn).label(images[i]), want,
              "par t" + std::to_string(threads) + " " + context);
        }
      }
    }
  }
}

TEST(PropagateIdentity, ParallelKernelsRaceOnLargeSeams) {
  // Big enough that every kernel launch actually fans out over threads
  // (the launcher's grain keeps tiny inputs inline): the TSan run drives
  // the scanning kernel's atomic-min contention and the labeling
  // kernel's double-refresh at seam crossings.
  const BinaryImage image = gen::uniform_noise(256, 256, 0.6, 31);
  const LabelResponse want = reference_labeling(image, Connectivity::Eight);
  const PropagateConfig config{.block_rows = 2, .block_cols = 2, .threads = 8};
  for (int round = 0; round < 3; ++round) {
    expect_bit_identical(PropagateParLabeler(config).label(image), want,
                         "round " + std::to_string(round));
  }
}

TEST(PropagateIdentity, StridedRoiViewsLabelIdentically) {
  // Labels are logical linear indices, never storage offsets: an ROI of a
  // larger padded buffer must label exactly like its packed copy.
  const BinaryImage big = gen::uniform_noise(96, 96, 0.5, 41);
  const ConstImageView roi = ConstImageView(big).subview(17, 23, 48, 51);
  const BinaryImage packed = materialize(roi);
  for (const Connectivity conn : {Connectivity::Four, Connectivity::Eight}) {
    for (const bool parallel : {false, true}) {
      const LabelerOptions options{.connectivity = conn, .threads = 4};
      const auto labeler = make_labeler(
          parallel ? Algorithm::PropagatePar : Algorithm::Propagate, options);
      LabelRequest request;
      request.input = roi;
      const LabelResponse via_roi = labeler->run(request);
      LabelRequest packed_request;
      packed_request.input = packed;
      const LabelResponse via_packed = labeler->run(packed_request);
      EXPECT_EQ(via_roi.num_components, via_packed.num_components);
      EXPECT_TRUE(std::ranges::equal(via_roi.labels.pixels(),
                                     via_packed.labels.pixels()));
    }
  }
}

TEST(PropagateIdentity, CountersSatisfyTheUnionOracle) {
  // scan_unions + merge_unions == provisional_labels - num_components is
  // the suite-wide work-accounting invariant (tests/test_obs.cpp); the
  // propagation backend reports heads as provisional labels and absorbed
  // heads as merge unions, so it must hold exactly here too.
  for (const OracleCase& oc : oracle_cases()) {
    for (const bool parallel : {false, true}) {
      const auto labeler = make_labeler(
          parallel ? Algorithm::PropagatePar : Algorithm::Propagate);
      const LabelResponse result = labeler->label(oc.image);
      const PhaseCounters& counters = result.timings.counters;
      ASSERT_GT(counters.provisional_labels, 0) << oc.name;
      EXPECT_EQ(counters.total_unions(),
                static_cast<std::uint64_t>(counters.provisional_labels -
                                           result.num_components))
          << oc.name << (parallel ? " par" : " seq");
      EXPECT_GE(counters.propagate_passes, 1u);
      EXPECT_GT(counters.tiles, 0u);
    }
  }
}

// --- Request routing --------------------------------------------------------

TEST(PropagateRouting, DirectRunEnforcesTheFamilyGate) {
  const BinaryImage image = gen::uniform_noise(32, 32, 0.5, 51);
  LabelRequest request;
  request.input = image;

  const auto propagate_labeler = make_labeler(Algorithm::Propagate);
  const auto aremsp_labeler = make_labeler(Algorithm::Aremsp);

  // Matching family: accepted.
  request.backend = Backend::Propagation;
  EXPECT_NO_THROW((void)propagate_labeler->run(request));
  // Mismatch: a synchronous PreconditionError, never a silent fallback.
  EXPECT_THROW((void)aremsp_labeler->run(request), PreconditionError);
  request.backend = Backend::UnionFind;
  EXPECT_NO_THROW((void)aremsp_labeler->run(request));
  EXPECT_THROW((void)propagate_labeler->run(request), PreconditionError);
}

TEST(PropagateRouting, EngineRoutesBackendRequestsToTheMatchingFamily) {
  const BinaryImage image = gen::uniform_noise(64, 64, 0.5, 52);
  const LabelResponse want_propagate =
      PropagateLabeler().label(image);
  const LabelResponse want_unionfind =
      AremspLabeler(Connectivity::Eight).label(image);

  engine::EngineConfig config;
  config.workers = 2;
  config.algorithm = Algorithm::Aremsp;
  engine::LabelingEngine engine(config);

  // No selector: the worker's configured labeler runs.
  LabelRequest request;
  request.input = image;
  LabelResponse r = engine.submit(request).get();
  EXPECT_TRUE(std::ranges::equal(r.labels.pixels(),
                                 want_unionfind.labels.pixels()));

  // Propagation selector on a union-find engine: routed to the family's
  // sequential reference on the worker, bit-identical to a direct run.
  request.backend = Backend::Propagation;
  r = engine.submit(request).get();
  EXPECT_EQ(r.num_components, want_propagate.num_components);
  EXPECT_TRUE(std::ranges::equal(r.labels.pixels(),
                                 want_propagate.labels.pixels()));
  EXPECT_GE(r.timings.counters.propagate_passes, 1u);

  // A matching selector is a no-op.
  request.backend = Backend::UnionFind;
  r = engine.submit(request).get();
  EXPECT_TRUE(std::ranges::equal(r.labels.pixels(),
                                 want_unionfind.labels.pixels()));
}

TEST(PropagateRouting, EngineRoutesUnionFindRequestsOffAPropagateEngine) {
  const BinaryImage image = gen::uniform_noise(48, 48, 0.4, 53);
  engine::EngineConfig config;
  config.workers = 2;
  config.algorithm = Algorithm::PropagatePar;
  engine::LabelingEngine engine(config);

  LabelRequest request;
  request.input = image;
  request.backend = Backend::UnionFind;
  const LabelResponse r = engine.submit(request).get();
  EXPECT_TRUE(std::ranges::equal(
      r.labels.pixels(),
      AremspLabeler(Connectivity::Eight).label(image).labels.pixels()));

  // 4-connectivity routes to the one-line reference (AREMSP cannot).
  request.connectivity = Connectivity::Four;
  const LabelResponse r4 = engine.submit(request).get();
  EXPECT_TRUE(std::ranges::equal(
      r4.labels.pixels(),
      CclremspLabeler(Connectivity::Four).label(image).labels.pixels()));
}

TEST(PropagateRouting, ShardedExecutionRejectsPropagationSynchronously) {
  const BinaryImage image = gen::uniform_noise(64, 64, 0.5, 54);
  engine::EngineConfig config;
  config.workers = 2;
  engine::LabelingEngine engine(config);

  LabelRequest request;
  request.input = image;
  request.shard = ShardOptions{.tile_rows = 16, .tile_cols = 16};
  request.backend = Backend::Propagation;
  // The sharded tile pipeline is union-find machinery; the reject must be
  // a synchronous throw on the submitting thread, not a failed future and
  // never a silent fallback to the other family.
  EXPECT_THROW((void)engine.submit(request), PreconditionError);

  // Same request without the selector shards fine.
  request.backend.reset();
  EXPECT_EQ(engine.submit(request).get().num_components,
            FloodFillLabeler(Connectivity::Eight).label(image).num_components);
}

TEST(PropagateRouting, StreamSessionsRejectPropagationSynchronously) {
  stream::StreamOptions options;
  options.cols = 64;
  options.backend = Backend::Propagation;
  EXPECT_THROW(stream::SlabSession{options}, PreconditionError);

  engine::EngineConfig config;
  config.workers = 1;
  engine::LabelingEngine engine(config);
  engine::StreamConfig stream_config;
  stream_config.options = options;
  EXPECT_THROW((void)engine.open_stream(stream_config), PreconditionError);
}

}  // namespace
}  // namespace paremsp
