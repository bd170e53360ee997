// Merge-phase ablation: lock-pool striping vs plain CAS vs every
// find x splice CAS policy, per worker count and seam density.
//
// The paper fixes one Phase-II design (Algorithm 8, lock-based parallel
// REM). PR 7 made the CAS backend's design space explicit —
// cas_unite<Find, Splice> with naive/split/halve path compaction and
// atomic/simple walk advancement (after the PASGAL union_find_rules
// catalog) — and this bench makes the whole space measurable:
//
//   * sequential          boundary merges serialized (lower bound)
//   * locked/b{0,6,12}    Algorithm 8 on striped lock pools (S5 sweep)
//   * cas/<find>+<splice> all six policy combinations
//
// Workload: 2-D tiled PAREMSP with small tiles, so Phase II gets seam
// traffic on both axes, swept over foreground densities (seam-pair
// density tracks foreground density) and worker counts. Before timing,
// EVERY configuration is verified bit-identical to sequential AREMSP —
// the §3/§11 invariant that the component minimum survives as root under
// any schedule and policy; the process exits nonzero on a mismatch.
//
// Besides the tables, writes BENCH_merge.json (repo root via
// artifact_path): one flat record per (backend, density, threads) with
// merge_ms / total_ms / merge_pairs / merge_unions / merge_retries, so
// the lock-vs-CAS tradeoff is a committed trajectory, not a one-off
// stdout table.
//
// Knobs: PAREMSP_BENCH_SCALE scales the image linearly (default 1.0 =
// 1024x1024), PAREMSP_BENCH_REPS, PAREMSP_BENCH_MAX_THREADS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/aremsp.hpp"
#include "core/label_scratch.hpp"
#include "core/paremsp.hpp"
#include "core/request.hpp"
#include "core/rle_labelers.hpp"
#include "unionfind/lock_pool.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

/// One merge-backend configuration under test.
struct BackendConfig {
  std::string name;  // stable record key ("locked/b12", "cas/halve+simple")
  MergeBackend backend = MergeBackend::Sequential;
  int lock_bits = uf::LockPool::kDefaultBits;
  uf::CasFind find = uf::CasFind::Naive;
  uf::CasSplice splice = uf::CasSplice::Atomic;
};

std::vector<BackendConfig> backend_configs() {
  std::vector<BackendConfig> configs;
  configs.push_back({"sequential", MergeBackend::Sequential});
  for (const int bits : {0, 6, 12}) {
    configs.push_back({"locked/b" + std::to_string(bits),
                       MergeBackend::LockedRem, bits});
  }
  for (const uf::CasFind find :
       {uf::CasFind::Naive, uf::CasFind::Split, uf::CasFind::Halve}) {
    for (const uf::CasSplice splice :
         {uf::CasSplice::Atomic, uf::CasSplice::Simple}) {
      BackendConfig c;
      c.name = merge_backend_label(MergeBackend::CasRem, find, splice);
      c.backend = MergeBackend::CasRem;
      c.find = find;
      c.splice = splice;
      configs.push_back(c);
    }
  }
  return configs;
}

struct MergeRecord {
  std::string backend;
  double density = 0.0;
  int threads = 0;
  double merge_ms = 0.0;
  double total_ms = 0.0;
  std::uint64_t merge_pairs = 0;
  std::uint64_t merge_unions = 0;
  std::uint64_t merge_retries = 0;
  int reps = 0;
};

void write_json(const std::string& path, Coord rows, Coord cols,
                Coord tile, const std::vector<MergeRecord>& runs,
                bool identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput_merge\",\n"
               "  \"image\": {\"rows\": %lld, \"cols\": %lld, "
               "\"mpx\": %.3f},\n"
               "  \"tile\": {\"rows\": %lld, \"cols\": %lld},\n"
               "  \"runs\": [\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               static_cast<double>(rows) * cols / 1e6,
               static_cast<long long>(tile), static_cast<long long>(tile));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MergeRecord& r = runs[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"density\": %.2f, \"threads\": %d, "
        "\"merge_ms\": %.4f, \"total_ms\": %.3f, \"merge_pairs\": %llu, "
        "\"merge_unions\": %llu, \"merge_retries\": %llu, \"reps\": %d}%s\n",
        r.backend.c_str(), r.density, r.threads, r.merge_ms, r.total_ms,
        static_cast<unsigned long long>(r.merge_pairs),
        static_cast<unsigned long long>(r.merge_unions),
        static_cast<unsigned long long>(r.merge_retries), r.reps,
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
  print_banner("Merge-phase ablation: lock striping vs CAS find x splice");

  const double scale = bench_scale();
  const Coord side = std::max<Coord>(
      96, static_cast<Coord>(1024.0 * std::sqrt(std::max(scale, 1e-3))));
  const Coord tile = std::max<Coord>(16, side / 8);  // 8x8 tile grid
  const int reps = std::max(1, bench_reps());
  const ThroughputMatrix matrix =
      make_throughput_matrix({0.05, 0.5, 0.9}, side, side, AremspLabeler(),
                             {1, 2, 4, 8});
  const std::vector<int>& thread_counts = matrix.thread_counts;
  const std::vector<BackendConfig> configs = backend_configs();

  std::cout << "image: " << side << "x" << side << " uniform noise per "
            << "density, " << tile << "x" << tile << " tiles, best of "
            << reps << " rep(s)\n\n";

  int failures = 0;
  std::vector<MergeRecord> runs;

  for (const DensityCase& dc : matrix.cases) {
    const double density = dc.density;
    const BinaryImage& image = dc.image;
    const LabelResponse& want = dc.reference;
    LabelScratch scratch;

    TextTable table("merge phase [ms] at density " +
                    TextTable::num(density, 2) + " (best of " +
                    std::to_string(reps) + ")");
    std::vector<std::string> header = {"backend"};
    for (const int t : thread_counts) {
      header.push_back("t" + std::to_string(t));
    }
    header.push_back("retries@t" + std::to_string(thread_counts.back()));
    table.set_header(header);

    for (const BackendConfig& config : configs) {
      std::vector<std::string> row = {config.name};
      std::uint64_t retries_at_max = 0;
      for (const int threads : thread_counts) {
        const TiledParemspLabeler labeler(
            RleConfig{.threads = threads,
                      .tile_rows = tile,
                      .tile_cols = tile,
                      .merge_backend = config.backend,
                      .lock_bits = config.lock_bits,
                      .cas_find = config.find,
                      .cas_splice = config.splice});
        // Bit-identity gate before any timing: every backend x policy
        // must reproduce sequential AREMSP exactly (DESIGN.md §11).
        const LabelResponse got = labeler.run({.input = image}, scratch);
        if (got.num_components != want.num_components ||
            got.labels != want.labels) {
          std::cerr << "MISMATCH: " << config.name << " at density "
                    << density << " threads " << threads
                    << " differs from sequential AREMSP\n";
          ++failures;
          row.push_back("FAIL");
          continue;
        }
        const PhaseTimings timings = time_labeler_phases(labeler, image, reps);
        MergeRecord r;
        r.backend = config.name;
        r.density = density;
        r.threads = threads;
        r.merge_ms = timings.merge_ms;
        r.total_ms = timings.total_ms;
        r.merge_pairs = timings.counters.merge_pairs;
        r.merge_unions = timings.counters.merge_unions;
        r.merge_retries = timings.counters.merge_retries;
        r.reps = reps;
        runs.push_back(r);
        row.push_back(TextTable::num(r.merge_ms, 3));
        retries_at_max = r.merge_retries;
      }
      row.push_back(std::to_string(retries_at_max) +
                    oversubscription_note(thread_counts.back()));
      table.add_row(row);
    }
    std::cout << table.to_string() << "\n";
  }

  write_json(artifact_path("BENCH_merge.json"), side, side, tile, runs,
             failures == 0);

  if (failures > 0) {
    std::cerr << failures << " bit-identity check(s) failed\n";
    return 1;
  }
  std::cout << "all " << configs.size()
            << " merge configurations bit-identical to sequential AREMSP\n";
  return 0;
}
