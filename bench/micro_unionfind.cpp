// Micro-benchmarks (google-benchmark): raw throughput of the hot kernels —
// REM unite/find, FLATTEN, the parallel seam merge, and end-to-end labeler
// throughput in megapixels/second for every cataloged algorithm.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "common/executor.hpp"
#include "common/prng.hpp"
#include "core/paremsp_all.hpp"
#include "unionfind/parallel_rem.hpp"
#include "unionfind/rem.hpp"

namespace {

using namespace paremsp;

void BM_RemUnite(benchmark::State& state) {
  const auto n = static_cast<Label>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<std::pair<Label, Label>> edges;
  for (Label i = 0; i < n; ++i) {
    edges.emplace_back(
        static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  std::vector<Label> p(static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::iota(p.begin(), p.end(), 0);
    for (const auto& [x, y] : edges) {
      benchmark::DoNotOptimize(uf::rem_unite(p.data(), x, y));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_RemUnite)->Range(1 << 10, 1 << 20);

void BM_RemFind(benchmark::State& state) {
  const auto n = static_cast<Label>(state.range(0));
  std::vector<Label> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  Xoshiro256 rng(2);
  for (Label i = 0; i < n; ++i) {
    uf::rem_unite(
        p.data(),
        static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  Label q = 0;
  for (auto _ : state) {
    q = (q + 7919) % n;
    benchmark::DoNotOptimize(uf::rem_find(p.data(), q));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemFind)->Range(1 << 10, 1 << 20);

void BM_RemFlatten(benchmark::State& state) {
  const auto n = static_cast<Label>(state.range(0));
  Xoshiro256 rng(3);
  std::vector<Label> init(static_cast<std::size_t>(n) + 1);
  std::iota(init.begin(), init.end(), 0);
  for (Label i = 0; i < n; ++i) {
    uf::rem_unite(
        init.data(),
        1 + static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))),
        1 + static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  std::vector<Label> p;
  for (auto _ : state) {
    p = init;
    benchmark::DoNotOptimize(uf::rem_flatten(p.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RemFlatten)->Range(1 << 10, 1 << 20);

void BM_ParallelMerge(benchmark::State& state) {
  // Fixed chain workload, split over the configured thread count, through
  // the seam merge's own lock pool.
  constexpr Label n = 1 << 18;
  const int threads = static_cast<int>(state.range(0));
  std::vector<Label> p(static_cast<std::size_t>(n));
  uf::LockPool& locks = uf::seam_locks();
  for (auto _ : state) {
    std::iota(p.begin(), p.end(), 0);
    const auto pieces = static_cast<std::size_t>(threads);
    parallel_for(pieces, n, threads, [&](std::size_t t) {
      const Label end = static_cast<Label>((n - 1) * (t + 1) / pieces);
      for (Label i = static_cast<Label>((n - 1) * t / pieces); i < end; ++i) {
        uf::locked_unite(p.data(), locks, i, i + 1);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
  state.SetLabel("t" + std::to_string(threads));
}
BENCHMARK(BM_ParallelMerge)->Arg(1)->Arg(2)->Arg(4);

void BM_LabelerThroughput(benchmark::State& state) {
  const auto& info =
      algorithm_catalog()[static_cast<std::size_t>(state.range(0))];
  const Coord side = 1024;
  const BinaryImage image = gen::landcover_like(side, side, 11, 3);
  const auto labeler = make_labeler(info.id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeler->label(image));
  }
  state.SetItemsProcessed(state.iterations() * image.size());
  state.SetLabel(std::string(info.name));
}
BENCHMARK(BM_LabelerThroughput)
    ->DenseRange(0, static_cast<int>(algorithm_catalog().size()) - 1);

}  // namespace

BENCHMARK_MAIN();
