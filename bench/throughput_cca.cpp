// Fused connected-component analysis throughput: a stats request
// (outputs.stats; features accumulated during the labeling scan) against
// the two-pass baseline — a plain request + analysis::compute_stats (a
// full re-read of the label plane) — for each fused path: sequential
// AREMSP, in-process tiled PAREMSP, and the engine's sharded pipeline.
//
// Both sides of every comparison run on warm scratch (run(request,
// scratch) through one reused LabelScratch; the engine keeps its own
// arenas), so the measured difference is the fusion itself, not
// allocation noise. Every fused result is verified value-identical to the
// post-pass oracle before timing; the process exits nonzero on a mismatch.
//
// Besides the table, writes BENCH_cca.json:
//
//   { "bench": "throughput_cca",
//     "image": {"rows": R, "cols": C, "mpx": ..., "components": N},
//     "runs": [ { "algo": "...", "postpass_mpx_per_s": ...,
//                 "fused_mpx_per_s": ..., "speedup_fused": ...,
//                 "reps": K }, ... ] }
//
// Knobs: PAREMSP_BENCH_SCALE scales the image linearly (default 1.0 =
// 1280x1280), PAREMSP_BENCH_REPS, PAREMSP_BENCH_MAX_THREADS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/aremsp.hpp"
#include "core/label_scratch.hpp"
#include "core/rle_labelers.hpp"
#include "engine/engine.hpp"
#include "image/generators.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

struct CcaRecord {
  std::string algo;
  double postpass_mpx = 0.0;
  double fused_mpx = 0.0;
  int reps = 0;
  [[nodiscard]] double speedup() const {
    return postpass_mpx > 0 ? fused_mpx / postpass_mpx : 0.0;
  }
};

/// Exact (integer + derived-double) equality of two stats sets.
bool stats_identical(const analysis::ComponentStats& a,
                     const analysis::ComponentStats& b) {
  return a.components == b.components;
}

/// Best-of-reps wall time of `fn` in milliseconds.
template <class Fn>
double best_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const WallTimer timer;
    fn();
    const double ms = timer.elapsed_ms();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

void write_json(const std::string& path, Coord rows, Coord cols,
                Label components, const std::vector<CcaRecord>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput_cca\",\n"
               "  \"image\": {\"rows\": %lld, \"cols\": %lld, "
               "\"mpx\": %.3f, \"components\": %lld},\n  \"runs\": [\n",
               static_cast<long long>(rows), static_cast<long long>(cols),
               static_cast<double>(rows) * cols / 1e6,
               static_cast<long long>(components));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CcaRecord& r = runs[i];
    std::fprintf(f,
                 "    {\"algo\": \"%s\", \"postpass_mpx_per_s\": %.3f, "
                 "\"fused_mpx_per_s\": %.3f, \"speedup_fused\": %.3f, "
                 "\"reps\": %d}%s\n",
                 r.algo.c_str(), r.postpass_mpx, r.fused_mpx, r.speedup(),
                 r.reps, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main() {
  print_banner("Fused component analysis: stats-during-scan vs post-pass");

  const double scale = bench_scale();
  const Coord side = std::max<Coord>(
      64, static_cast<Coord>(1280.0 * std::sqrt(std::max(scale, 1e-3))));
  const int reps = std::max(1, bench_reps());
  const int threads = std::min(hardware_threads(), bench_max_threads());

  // Landcover stand-in: large organic patches — component counts in the
  // thousands, the regime the paper's downstream stages care about.
  const BinaryImage image = gen::landcover_like(side, side, 77);
  const double mpx = static_cast<double>(image.size()) / 1e6;

  int failures = 0;
  std::vector<CcaRecord> runs;
  Label components = 0;

  TextTable table("label+compute_stats (post-pass) vs stats request "
                  "(fused)");
  table.set_header(
      {"algorithm", "post-pass Mpx/s", "fused Mpx/s", "fused speedup"});

  const auto record = [&](const std::string& algo, double postpass_ms,
                          double fused_ms) {
    CcaRecord r;
    r.algo = algo;
    r.reps = reps;
    r.postpass_mpx = mpx / (postpass_ms / 1e3);
    r.fused_mpx = mpx / (fused_ms / 1e3);
    table.add_row({algo, TextTable::num(r.postpass_mpx, 1),
                   TextTable::num(r.fused_mpx, 1),
                   TextTable::num(r.speedup(), 2) + "x"});
    runs.push_back(r);
  };

  LabelRequest plain;
  plain.input = image;
  LabelRequest with_stats = plain;
  with_stats.outputs.stats = true;

  std::cout << "image: " << side << "x" << side << " ("
            << TextTable::num(mpx, 1) << " Mpx landcover stand-in), best of "
            << reps << " rep(s), " << threads << " thread(s)\n\n";

  // --- AREMSP (sequential) --------------------------------------------------
  {
    const AremspLabeler aremsp;
    LabelScratch scratch;
    // Verification + warmup in one: fused vs post-pass oracle.
    const LabelResponse fused = aremsp.run(with_stats, scratch);
    components = fused.num_components;
    const auto oracle =
        analysis::compute_stats(fused.labels, fused.num_components);
    if (!stats_identical(*fused.stats, oracle)) {
      std::cerr << "MISMATCH: aremsp fused stats differ from post-pass\n";
      ++failures;
    }
    const double postpass_ms = best_ms(reps, [&] {
      const LabelResponse r = aremsp.run(plain, scratch);
      const auto stats = analysis::compute_stats(r.labels, r.num_components);
      if (stats.count() != components) ++failures;
    });
    const double fused_ms = best_ms(reps, [&] {
      const LabelResponse r = aremsp.run(with_stats, scratch);
      if (r.stats->count() != components) ++failures;
    });
    record("aremsp", postpass_ms, fused_ms);
  }

  // --- Tiled PAREMSP --------------------------------------------------------
  {
    const TiledParemspLabeler tiled(RleConfig{
        .threads = threads, .tile_rows = 256, .tile_cols = 256});
    LabelScratch scratch;
    const LabelResponse fused = tiled.run(with_stats, scratch);
    const auto oracle =
        analysis::compute_stats(fused.labels, fused.num_components);
    if (!stats_identical(*fused.stats, oracle)) {
      std::cerr << "MISMATCH: paremsp2d fused stats differ from post-pass\n";
      ++failures;
    }
    const double postpass_ms = best_ms(reps, [&] {
      const LabelResponse r = tiled.run(plain, scratch);
      const auto stats = analysis::compute_stats(r.labels, r.num_components);
      if (stats.count() != components) ++failures;
    });
    const double fused_ms = best_ms(reps, [&] {
      const LabelResponse r = tiled.run(with_stats, scratch);
      if (r.stats->count() != components) ++failures;
    });
    record("paremsp2d", postpass_ms, fused_ms);
  }

  // --- Engine sharded pipeline ----------------------------------------------
  {
    engine::LabelingEngine eng({.workers = threads});
    LabelRequest sharded = plain;
    sharded.shard = engine::ShardOptions{.tile_rows = 512, .tile_cols = 512};
    LabelRequest sharded_stats = with_stats;
    sharded_stats.shard = sharded.shard;
    const LabelResponse fused = eng.submit(sharded_stats).get();
    const auto oracle =
        analysis::compute_stats(fused.labels, fused.num_components);
    if (!stats_identical(*fused.stats, oracle)) {
      std::cerr << "MISMATCH: sharded fused stats differ from post-pass\n";
      ++failures;
    }
    const double postpass_ms = best_ms(reps, [&] {
      const LabelResponse r = eng.submit(sharded).get();
      const auto stats = analysis::compute_stats(r.labels, r.num_components);
      if (stats.count() != components) ++failures;
    });
    const double fused_ms = best_ms(reps, [&] {
      const LabelResponse r = eng.submit(sharded_stats).get();
      if (r.stats->count() != components) ++failures;
    });
    record("engine.sharded 512x512", postpass_ms, fused_ms);
  }

  std::cout << table.to_string() << "\n";
  write_json(artifact_path("BENCH_cca.json"), side, side, components, runs);

  bool all_faster = true;
  for (const CcaRecord& r : runs) all_faster = all_faster && r.speedup() > 1.0;
  std::cout << "target fused strictly faster than label+post-pass: "
            << (all_faster ? "PASS" : "MISS") << "\n";

  if (failures > 0) {
    std::cerr << failures << " correctness check(s) failed\n";
    return 1;
  }
  std::cout << "all fused stats value-identical to the post-pass oracle\n";
  return 0;
}
