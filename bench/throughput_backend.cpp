// Backend ablation: coarse-to-fine label propagation vs the union-find
// family, per foreground density and worker count.
//
// The paper's algorithms all share one shape — scan with provisional
// labels, union-find equivalences, flatten. PR 10 added the other classic
// data-parallel CCL shape behind the same request API: iterated
// min-propagation over coarse block labels with pointer-jumping
// compression (src/propagate/). This bench makes the family tradeoff a
// committed trajectory:
//
//   * aremsp         the paper's sequential baseline (thread-independent)
//   * propagate      sequential reference of the propagation backend
//   * propagate_par  the same kernels launched over std::thread
//   * paremsp2d      the union-find family's tiled parallel labeler
//
// Before timing, EVERY cell is verified bit-identical to sequential
// AREMSP — both families converge to the same canonical first-appearance
// numbering, so the comparison is apples-to-apples output for different
// work shapes; the process exits nonzero on a mismatch. Per cell the
// JSON records the propagation pass count and coarse-head count (also
// published as obs gauges by the labeler) next to the phase times, so
// the trajectory captures WHY a density is slow (pass count tracks the
// class-graph diameter), not just that it is.
//
// Knobs: PAREMSP_BENCH_SCALE scales the image linearly (default 1.0 =
// 1024x1024), PAREMSP_BENCH_REPS, PAREMSP_BENCH_MAX_THREADS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/aremsp.hpp"
#include "core/label_scratch.hpp"
#include "core/rle_labelers.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "image/generators.hpp"
#include "propagate/propagate_labeler.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

/// One backend configuration under test, constructed per thread count.
struct BenchBackend {
  std::string name;
  bool parallel = false;  // false: run once, reuse the t1 row entry
  std::unique_ptr<Labeler> (*make)(int threads, Coord tile) = nullptr;
};

std::vector<BenchBackend> bench_backends() {
  return {
      {"aremsp", false,
       [](int, Coord) -> std::unique_ptr<Labeler> {
         return std::make_unique<AremspLabeler>();
       }},
      {"propagate", false,
       [](int, Coord) -> std::unique_ptr<Labeler> {
         return std::make_unique<PropagateLabeler>();
       }},
      {"propagate_par", true,
       [](int threads, Coord) -> std::unique_ptr<Labeler> {
         return std::make_unique<PropagateParLabeler>(
             PropagateConfig{.threads = threads});
       }},
      {"paremsp2d", true,
       [](int threads, Coord tile) -> std::unique_ptr<Labeler> {
         return std::make_unique<TiledParemspLabeler>(
             RleConfig{.threads = threads,
                       .tile_rows = tile,
                       .tile_cols = tile});
       }},
  };
}

struct BackendRecord {
  std::string backend;
  double density = 0.0;
  int threads = 0;
  double total_ms = 0.0;
  double scan_ms = 0.0;
  double merge_ms = 0.0;
  double flatten_ms = 0.0;
  double relabel_ms = 0.0;
  std::uint64_t passes = 0;
  std::uint64_t heads = 0;
  int reps = 0;
};

void write_json(const std::string& path, Coord rows, Coord cols,
                const std::vector<BackendRecord>& runs, bool identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput_backend\",\n"
               "  \"image\": {\"rows\": %lld, \"cols\": %lld, "
               "\"mpx\": %.3f},\n"
               "  \"runs\": [\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               static_cast<double>(rows) * cols / 1e6);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const BackendRecord& r = runs[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"density\": %.2f, \"threads\": %d, "
        "\"total_ms\": %.3f, \"scan_ms\": %.4f, \"merge_ms\": %.4f, "
        "\"flatten_ms\": %.4f, \"relabel_ms\": %.4f, "
        "\"propagate_passes\": %llu, \"propagate_heads\": %llu, "
        "\"reps\": %d}%s\n",
        r.backend.c_str(), r.density, r.threads, r.total_ms, r.scan_ms,
        r.merge_ms, r.flatten_ms, r.relabel_ms,
        static_cast<unsigned long long>(r.passes),
        static_cast<unsigned long long>(r.heads), r.reps,
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"bit_identical_to_sequential\": %s\n}\n",
               identical ? "true" : "false");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main() {
  print_banner("Backend ablation: label propagation vs union-find");

  const double scale = bench_scale();
  const Coord side = std::max<Coord>(
      96, static_cast<Coord>(1024.0 * std::sqrt(std::max(scale, 1e-3))));
  const Coord tile = std::max<Coord>(16, side / 8);
  const int reps = std::max(1, bench_reps());
  const ThroughputMatrix matrix =
      make_throughput_matrix({0.05, 0.5, 0.9}, side, side, AremspLabeler(),
                             {1, 2, 4, 8});
  const std::vector<BenchBackend> backends = bench_backends();

  std::cout << "image: " << side << "x" << side << " uniform noise per "
            << "density, best of " << reps << " rep(s)\n\n";

  int failures = 0;
  std::vector<BackendRecord> runs;

  for (const DensityCase& dc : matrix.cases) {
    LabelScratch scratch;
    TextTable table("end-to-end [ms] at density " +
                    TextTable::num(dc.density, 2) + " (best of " +
                    std::to_string(reps) + ")");
    std::vector<std::string> header = {"backend"};
    for (const int t : matrix.thread_counts) {
      header.push_back("t" + std::to_string(t));
    }
    header.push_back("passes");
    table.set_header(header);

    for (const BenchBackend& backend : backends) {
      std::vector<std::string> row = {backend.name};
      std::uint64_t last_passes = 0;
      for (const int threads : matrix.thread_counts) {
        if (!backend.parallel && threads != matrix.thread_counts.front()) {
          row.push_back("-");  // sequential: the t1 column is the number
          continue;
        }
        const std::unique_ptr<Labeler> labeler = backend.make(threads, tile);
        // Bit-identity gate before any timing: both families must agree
        // with sequential AREMSP exactly (same canonical numbering).
        const LabelResponse got = labeler->run({.input = dc.image}, scratch);
        if (got.num_components != dc.reference.num_components ||
            got.labels != dc.reference.labels) {
          std::cerr << "MISMATCH: " << backend.name << " at density "
                    << dc.density << " threads " << threads
                    << " differs from sequential AREMSP\n";
          ++failures;
          row.push_back("FAIL");
          continue;
        }
        const PhaseTimings timings =
            time_labeler_phases(*labeler, dc.image, reps);
        BackendRecord r;
        r.backend = backend.name;
        r.density = dc.density;
        r.threads = threads;
        r.total_ms = timings.total_ms;
        r.scan_ms = timings.scan_ms;
        r.merge_ms = timings.merge_ms;
        r.flatten_ms = timings.flatten_ms;
        r.relabel_ms = timings.relabel_ms;
        r.passes = timings.counters.propagate_passes;
        r.heads = static_cast<std::uint64_t>(
            std::max<Label>(0, timings.counters.provisional_labels));
        r.reps = reps;
        runs.push_back(r);
        row.push_back(TextTable::num(r.total_ms, 3));
        last_passes = r.passes;
      }
      row.push_back(last_passes > 0 ? std::to_string(last_passes) : "-");
      table.add_row(row);
    }
    std::cout << table.to_string() << "\n";
  }

  write_json(artifact_path("BENCH_backend.json"), side, side, runs,
             failures == 0);

  if (failures > 0) {
    std::cerr << failures << " bit-identity check(s) failed\n";
    return 1;
  }
  std::cout << "all " << backends.size()
            << " backends bit-identical to sequential AREMSP\n";
  return 0;
}
