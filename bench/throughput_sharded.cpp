// Sharded huge-image throughput: one large raster through sharded
// LabelingEngine::submit requests at several tile geometries and worker
// counts, against single-thread sequential AREMSP as the speedup baseline
// and in-process tiled PAREMSP (the same pipeline, called directly) as
// the reference point.
//
// Besides the human-readable table, the bench writes BENCH_sharded.json
// (machine-readable trajectory record; schema below) so successive PRs can
// track the sharded path without parsing tables:
//
//   { "bench": "throughput_sharded",
//     "image": {"rows": R, "cols": C, "mpx": ...},
//     "baseline_mpx_per_s": ...,            // single-thread AREMSP
//     "runs": [ { "algo": "...", "tile_rows": ..., "tile_cols": ...,
//                 "tiles": N, "threads": T, "reps": K,
//                 "mpx_per_s": ..., "tiles_per_s": ...,
//                 "p50_ms": ..., "p99_ms": ...,
//                 "speedup_vs_aremsp": ... }, ... ] }
//
// Every configuration is verified bit-identical to the AREMSP reference
// before it is reported; the process exits nonzero on any mismatch.
//
// Knobs: PAREMSP_BENCH_SCALE scales the image linearly (default 1.0 =
// 1536x1536), PAREMSP_BENCH_REPS latency samples per configuration,
// PAREMSP_BENCH_MAX_THREADS caps the worker sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/aremsp.hpp"
#include "core/rle_labelers.hpp"
#include "engine/engine.hpp"
#include "image/generators.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

struct RunRecord {
  std::string algo;
  Coord tile_rows = 0;
  Coord tile_cols = 0;
  std::int64_t tiles = 0;
  int threads = 0;
  int reps = 0;
  double mpx_per_s = 0.0;
  double tiles_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double speedup = 0.0;
};

std::int64_t tile_count(Coord rows, Coord cols, Coord tr, Coord tc) {
  return static_cast<std::int64_t>((rows + tr - 1) / tr) *
         ((cols + tc - 1) / tc);
}

/// Latency distribution of `reps` runs of `fn` (each returning a
/// LabelResponse whose component count is checked against `want`).
template <class Fn>
std::vector<double> sample_latencies(int reps, Label want, Fn&& fn,
                                     int& failures) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const WallTimer timer;
    const LabelResponse r = fn();
    ms.push_back(timer.elapsed_ms());
    if (r.num_components != want) ++failures;
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

void write_json(const std::string& path, Coord rows, Coord cols,
                double baseline_mpx, const std::vector<RunRecord>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  const double mpx = static_cast<double>(rows) * cols / 1e6;
  std::fprintf(f,
               "{\n  \"bench\": \"throughput_sharded\",\n"
               "  \"image\": {\"rows\": %lld, \"cols\": %lld, \"mpx\": %.3f},\n"
               "  \"baseline_mpx_per_s\": %.3f,\n  \"runs\": [\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               mpx, baseline_mpx);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    std::fprintf(
        f,
        "    {\"algo\": \"%s\", \"tile_rows\": %lld, \"tile_cols\": %lld, "
        "\"tiles\": %lld, \"threads\": %d, \"reps\": %d, "
        "\"mpx_per_s\": %.3f, \"tiles_per_s\": %.1f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"speedup_vs_aremsp\": %.3f}%s\n",
        r.algo.c_str(), static_cast<long long>(r.tile_rows),
        static_cast<long long>(r.tile_cols), static_cast<long long>(r.tiles),
        r.threads, r.reps, r.mpx_per_s, r.tiles_per_s, r.p50_ms, r.p99_ms,
        r.speedup, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main() {
  print_banner("Sharded huge-image labeling through the batch engine");

  const double scale = bench_scale();
  const Coord side = std::max<Coord>(
      64, static_cast<Coord>(1536.0 * std::sqrt(std::max(scale, 1e-3))));
  const int reps = std::max(1, bench_reps());
  const int max_threads = std::min(hardware_threads(), bench_max_threads());

  const BinaryImage image = gen::landcover_like(side, side, 2014);
  const double mpx = static_cast<double>(image.size()) / 1e6;
  std::cout << "image: " << side << "x" << side << " ("
            << TextTable::num(mpx, 1) << " Mpx landcover stand-in), "
            << reps << " rep(s), up to " << max_threads << " worker(s)\n\n";

  int failures = 0;

  // --- Baseline: single-thread sequential AREMSP ----------------------------
  const AremspLabeler aremsp;
  const LabelResponse reference = aremsp.label(image);
  const auto baseline_ms = sample_latencies(
      reps, reference.num_components, [&] { return aremsp.label(image); },
      failures);
  const double baseline_mpx = mpx / (baseline_ms.front() / 1e3);

  std::vector<RunRecord> runs;
  TextTable table("sharded requests vs single-thread AREMSP (" +
                  TextTable::num(baseline_mpx, 1) + " Mpx/s baseline)");
  table.set_header({"configuration", "tiles", "threads", "Mpx/s", "tiles/s",
                    "p50 [ms]", "p99 [ms]", "speedup"});

  const auto record = [&](RunRecord r, const std::vector<double>& ms) {
    r.reps = reps;
    r.p50_ms = percentile_sorted(ms, 50.0);
    r.p99_ms = percentile_sorted(ms, 99.0);
    r.mpx_per_s = mpx / (ms.front() / 1e3);
    r.tiles_per_s = static_cast<double>(r.tiles) / (ms.front() / 1e3);
    r.speedup = r.mpx_per_s / baseline_mpx;
    table.add_row({r.algo + " " + std::to_string(r.tile_rows) + "x" +
                       std::to_string(r.tile_cols),
                   std::to_string(r.tiles), std::to_string(r.threads),
                   TextTable::num(r.mpx_per_s, 1),
                   TextTable::num(r.tiles_per_s, 0),
                   TextTable::num(r.p50_ms, 2), TextTable::num(r.p99_ms, 2),
                   TextTable::num(r.speedup, 2) + "x"});
    runs.push_back(std::move(r));
  };

  const std::vector<std::pair<Coord, Coord>> geometries = {
      {side, 256},  // row bands, short seams
      {256, 256},
      {512, 512},
  };
  std::vector<int> worker_counts = {1, 2, 4, max_threads};
  worker_counts.erase(
      std::remove_if(worker_counts.begin(), worker_counts.end(),
                     [&](int w) { return w > max_threads; }),
      worker_counts.end());
  worker_counts.erase(std::unique(worker_counts.begin(), worker_counts.end()),
                      worker_counts.end());

  for (const int workers : worker_counts) {
    engine::LabelingEngine eng({.workers = workers});
    for (const auto& [tr, tc] : geometries) {
      LabelRequest request;
      request.input = image;
      request.shard = engine::ShardOptions{.tile_rows = tr, .tile_cols = tc};

      // Untimed verification first: bit-identical to sequential AREMSP.
      {
        const LabelResponse got = eng.submit(request).get();
        if (got.num_components != reference.num_components ||
            !(got.labels == reference.labels)) {
          std::cerr << "MISMATCH: sharded " << tr << "x" << tc << " @ "
                    << workers << " workers differs from AREMSP\n";
          ++failures;
        }
      }

      const auto ms = sample_latencies(
          reps, reference.num_components,
          [&] { return eng.submit(request).get(); }, failures);
      RunRecord r;
      r.algo = "engine.sharded";
      r.tile_rows = tr;
      r.tile_cols = tc;
      r.tiles = tile_count(side, side, tr, tc);
      r.threads = workers;
      record(std::move(r), ms);
    }
  }

  // --- In-process tiled PAREMSP reference (same pipeline) -------------------
  {
    const TiledParemspLabeler tiled(RleConfig{
        .threads = max_threads, .tile_rows = 256, .tile_cols = 256});
    const auto ms = sample_latencies(
        reps, reference.num_components, [&] { return tiled.label(image); },
        failures);
    RunRecord r;
    r.algo = "paremsp2d";
    r.tile_rows = 256;
    r.tile_cols = 256;
    r.tiles = tile_count(side, side, 256, 256);
    r.threads = max_threads;
    record(std::move(r), ms);
  }

  std::cout << table.to_string() << "\n";
  write_json(artifact_path("BENCH_sharded.json"), side, side, baseline_mpx,
             runs);

  if (failures > 0) {
    std::cerr << failures << " correctness check(s) failed\n";
    return 1;
  }
  std::cout << "all sharded labelings bit-identical to sequential AREMSP\n";
  return 0;
}
