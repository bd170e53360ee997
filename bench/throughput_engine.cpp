// Batch-engine throughput: a stream of 256x256 images through the
// persistent-worker LabelingEngine vs a naive loop that constructs a
// labeler and allocates scratch per call, at equal total thread count.
//
// Three configurations per algorithm, best of PAREMSP_BENCH_REPS runs:
//   naive       make_labeler + label() per image (per-call construction,
//               per-call scratch allocation) — the engine's baseline;
//   warm loop   one labeler + one LabelScratch reused sequentially through
//               run(request, scratch) — isolates the scratch-reuse gain
//               from the threading gain;
//   engine      LabelingEngine with persistent workers + arenas fed
//               zero-copy submit(LabelRequest) calls, clients recycling
//               label planes.
//
// Timed loops only verify component counts (a full raster compare per job
// would dilute every configuration equally); an untimed verification pass
// then streams every distinct image through the warm engine and checks the
// results bit-identical to direct label() calls, after the references
// passed analysis::validate_labeling. Exits nonzero on any mismatch.
//
// Knobs: PAREMSP_BENCH_SCALE multiplies the job count (default 1200 jobs);
// PAREMSP_BENCH_MAX_THREADS caps the worker count.
#include <algorithm>
#include <future>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/validation.hpp"
#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "core/paremsp_all.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

constexpr Coord kSide = 256;

/// Distinct images cycled through the stream (mixed dataset families, so
/// component structure varies job to job).
std::vector<BinaryImage> make_stream_images() {
  std::vector<BinaryImage> images;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    images.push_back(gen::landcover_like(kSide, kSide, seed));
    images.push_back(gen::texture_like(kSide, kSide, seed));
    images.push_back(gen::aerial_like(kSide, kSide, seed));
  }
  return images;
}

struct RunResult {
  double seconds = 0.0;
  double images_per_sec = 0.0;
  double mpixels_per_sec = 0.0;
};

RunResult to_run_result(double seconds, int jobs) {
  RunResult r;
  r.seconds = seconds;
  r.images_per_sec = static_cast<double>(jobs) / seconds;
  r.mpixels_per_sec =
      static_cast<double>(jobs) * kSide * kSide / 1e6 / seconds;
  return r;
}

/// Best-of-reps wrapper around one timed configuration run.
template <class RunFn>
RunResult best_of(int reps, int jobs, RunFn&& run) {
  double best_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const WallTimer timer;
    run();
    const double s = timer.elapsed_s();
    if (rep == 0 || s < best_s) best_s = s;
  }
  return to_run_result(best_s, jobs);
}

}  // namespace

int main() {
  print_banner("Engine throughput: persistent workers vs naive per-call loop");

  const int threads = std::min(hardware_threads(), bench_max_threads());
  const int reps = bench_reps();
  const int jobs = std::max(1, static_cast<int>(1200 * bench_scale()));
  const std::vector<BinaryImage> images = make_stream_images();
  std::cout << "stream: " << jobs << " jobs of " << kSide << "x" << kSide
            << " (" << images.size() << " distinct images), " << threads
            << " thread(s) per configuration, best of " << reps << "\n\n";
  if (threads == 1) {
    std::cout << "note: single hardware thread — the engine's image-level\n"
              << "parallelism cannot engage; the >=2x target needs a\n"
              << "multicore host (scratch reuse alone shows as ~1.1x).\n\n";
  }

  int failures = 0;

  const Algorithm cases[] = {Algorithm::Paremsp, Algorithm::Aremsp};

  for (const Algorithm algorithm : cases) {
    const AlgorithmInfo& info = algorithm_info(algorithm);

    // References: direct per-call labelings, validated structurally.
    LabelerOptions direct_options;
    direct_options.threads = threads;
    const auto reference_labeler = make_labeler(algorithm, direct_options);
    std::vector<LabelResponse> reference;
    for (const BinaryImage& image : images) {
      reference.push_back(reference_labeler->label(image));
      const auto validation = analysis::validate_labeling(
          image, reference.back().labels, reference.back().num_components);
      if (!validation.ok) {
        std::cerr << "VALIDATION FAILED (" << info.name
                  << "): " << validation.error << "\n";
        ++failures;
      }
    }

    const auto components_of = [&reference,
                                &images](std::size_t job) -> Label {
      return reference[job % images.size()].num_components;
    };
    const auto image_of = [&images](std::size_t job) -> const BinaryImage& {
      return images[job % images.size()];
    };

    // --- naive: construct + allocate per call ------------------------------
    const RunResult naive = best_of(reps, jobs, [&] {
      for (std::size_t j = 0; j < static_cast<std::size_t>(jobs); ++j) {
        const auto labeler = make_labeler(algorithm, direct_options);
        const LabelResponse r = labeler->label(image_of(j));
        if (r.num_components != components_of(j)) ++failures;
      }
    });

    // --- warm loop: one labeler + one scratch, still sequential ------------
    const auto warm_labeler = make_labeler(algorithm, direct_options);
    LabelScratch warm_scratch;
    const RunResult warm = best_of(reps, jobs, [&] {
      for (std::size_t j = 0; j < static_cast<std::size_t>(jobs); ++j) {
        LabelResponse r =
            warm_labeler->run({.input = image_of(j)}, warm_scratch);
        if (r.num_components != components_of(j)) ++failures;
        warm_scratch.recycle_plane(std::move(r.labels));
      }
    });

    // --- engine: persistent workers + arenas, planes recycled --------------
    engine::EngineConfig config;
    config.workers = threads;
    // Sized to the burst so producers never stall on backpressure here
    // (the engine tests cover the bounded-queue path).
    config.queue_capacity = static_cast<std::size_t>(jobs);
    config.algorithm = algorithm;
    config.labeler.threads = 1;  // image-level parallelism instead
    engine::LabelingEngine eng(config);

    std::vector<std::future<LabelResponse>> futures;
    futures.reserve(static_cast<std::size_t>(jobs));
    const RunResult engine_run = best_of(reps, jobs, [&] {
      futures.clear();
      for (std::size_t j = 0; j < static_cast<std::size_t>(jobs); ++j) {
        // The request borrows the image: the corpus outlives the futures.
        futures.push_back(eng.submit({.input = image_of(j)}));
      }
      for (std::size_t j = 0; j < static_cast<std::size_t>(jobs); ++j) {
        LabelResponse r = futures[j].get();
        if (r.num_components != components_of(j)) ++failures;
        eng.recycle(std::move(r.labels));
      }
    });
    const auto stats = eng.stats();

    // --- untimed verification: warm engine output is bit-identical ---------
    for (std::size_t i = 0; i < images.size(); ++i) {
      const LabelResponse got = eng.submit({.input = images[i]}).get();
      if (got.num_components != reference[i].num_components ||
          got.labels != reference[i].labels) {
        std::cerr << "MISMATCH (" << info.name << "): image " << i
                  << " differs from the direct labeling\n";
        ++failures;
      }
    }

    TextTable table("Algorithm: " + std::string(info.name) + " — " +
                    std::string(info.description));
    table.set_header({"configuration", "images/s", "Mpx/s", "speedup",
                      "p50 [ms]", "p99 [ms]"});
    const auto add = [&table, &naive](const char* name, const RunResult& r,
                                      double p50, double p99) {
      table.add_row(
          {name, TextTable::num(r.images_per_sec, 1),
           TextTable::num(r.mpixels_per_sec, 1),
           TextTable::num(r.images_per_sec / naive.images_per_sec, 2) + "x",
           p50 > 0 ? TextTable::num(p50, 3) : "-",
           p99 > 0 ? TextTable::num(p99, 3) : "-"});
    };
    add("naive per-call loop", naive, 0, 0);
    add("warm labeler+scratch", warm, 0, 0);
    add("engine", engine_run, stats.latency_p50_ms, stats.latency_p99_ms);
    std::cout << table.to_string() << "\n";
    std::cout << "engine scratch: " << stats.scratch_reserved_bytes / 1024
              << " KiB reserved, " << stats.scratch_grow_count
              << " grows over " << stats.jobs_completed << " jobs, "
              << stats.plane_reuses << " plane reuses\n";

    const double speedup = engine_run.images_per_sec / naive.images_per_sec;
    std::cout << "target engine >= 2x naive: "
              << (speedup >= 2.0 ? "PASS" : "MISS") << " ("
              << TextTable::num(speedup, 2) << "x)\n\n";
  }

  if (failures > 0) {
    std::cerr << failures << " correctness check(s) failed\n";
    return 1;
  }
  std::cout << "all labelings bit-identical to direct calls\n";
  return 0;
}
