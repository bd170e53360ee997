#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/validation.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "core/request.hpp"
#include "image/generators.hpp"

namespace paremsp::bench {

std::string artifact_path(const std::string& filename) {
  if (const char* dir = std::getenv("PAREMSP_BENCH_DIR");
      dir != nullptr && *dir != '\0') {
    return std::string(dir) + "/" + filename;
  }
  if (bench_scale() == 1.0) {
#ifdef PAREMSP_SOURCE_DIR
    return std::string(PAREMSP_SOURCE_DIR) + "/" + filename;
#else
    return filename;
#endif
  }
  // Scaled run without an explicit destination: never reuse a canonical
  // trajectory filename — a smoke run started from the repo root would
  // otherwise clobber the committed full-size artifact (a 0.25-scale CI
  // pass once overwrote a committed BENCH_*.json with a 286x286
  // measurement).
  return "smoke." + filename;
}

double bench_scale() {
  const double s = env_double("PAREMSP_BENCH_SCALE", 1.0);
  return s > 0.0 ? s : 1.0;
}

int bench_reps() {
  const int r = env_int("PAREMSP_BENCH_REPS", 3);
  return r > 0 ? r : 1;
}

int bench_max_threads() {
  const int t = env_int("PAREMSP_BENCH_MAX_THREADS", 24);
  return t > 0 ? t : 24;
}

void print_banner(const std::string& title) {
  std::cout << "=== " << title << " ===\n"
            << environment_banner() << '\n'
            << "scale=" << bench_scale() << " (1.0 = 1/16 of paper sizes)"
            << ", reps=" << bench_reps()
            << ", max threads=" << bench_max_threads() << "\n\n";
}

namespace {

Coord scaled(Coord base) {
  const double side = static_cast<double>(base) * std::sqrt(bench_scale());
  return std::max<Coord>(16, static_cast<Coord>(std::llround(side)));
}

}  // namespace

std::vector<DatasetImage> texture_family() {
  // USC-SIPI textures: 512x512 / 1024x1024 crops, dense fine grain.
  std::vector<DatasetImage> v;
  int i = 0;
  for (const Coord base : {256, 384, 512, 640, 768, 1024}) {
    const Coord side = scaled(base);
    v.push_back({"texture_" + std::to_string(++i),
                 gen::texture_like(side, side, 100 + i)});
  }
  return v;
}

std::vector<DatasetImage> aerial_family() {
  std::vector<DatasetImage> v;
  int i = 0;
  for (const Coord base : {256, 512, 512, 768, 1024, 1024}) {
    const Coord side = scaled(base);
    v.push_back({"aerial_" + std::to_string(++i),
                 gen::aerial_like(side, side, 200 + i)});
  }
  return v;
}

std::vector<DatasetImage> misc_family() {
  // "Miscellaneous" images are the smallest in the paper (avg 2.7 ms).
  std::vector<DatasetImage> v;
  int i = 0;
  for (const Coord base : {128, 192, 256, 384, 512, 640}) {
    const Coord side = scaled(base);
    v.push_back({"misc_" + std::to_string(++i),
                 gen::misc_like(side, side, 300 + i)});
  }
  return v;
}

std::vector<DatasetImage> nlcd_family() {
  // Moderate rungs for the table benches; Figure 5 uses the full ladder.
  std::vector<DatasetImage> v;
  const auto ladder = nlcd_ladder();
  for (std::size_t i = 0; i < 3 && i < ladder.size(); ++i) {
    v.push_back({ladder[i].name, make_nlcd_image(ladder[i])});
  }
  return v;
}

std::vector<Family> all_families() {
  std::vector<Family> f;
  f.push_back({"Aerial", aerial_family()});
  f.push_back({"Texture", texture_family()});
  f.push_back({"Misc", misc_family()});
  f.push_back({"NLCD", nlcd_family()});
  return f;
}

std::vector<NlcdRung> nlcd_ladder() {
  // Paper Table III sizes [MB]; at scale 1.0 each rung has paper_mb/16
  // megapixels (binary image bytes ~ pixels).
  const double mbs[] = {12.0, 33.0, 37.31, 116.30, 132.03, 465.20};
  std::vector<NlcdRung> ladder;
  for (int i = 0; i < 6; ++i) {
    NlcdRung rung;
    rung.name = "image " + std::to_string(i + 1);
    rung.paper_mb = mbs[i];
    const double pixels = mbs[i] * 1e6 / 16.0 * bench_scale();
    const Coord side =
        std::max<Coord>(32, static_cast<Coord>(std::llround(
                                std::sqrt(std::max(pixels, 1.0)))));
    rung.rows = side;
    rung.cols = side;
    ladder.push_back(rung);
  }
  return ladder;
}

BinaryImage make_nlcd_image(const NlcdRung& rung) {
  // Seed by rung index via paper_mb so each rung is a distinct landscape.
  const auto seed = static_cast<std::uint64_t>(rung.paper_mb * 100.0);
  return gen::landcover_like(rung.rows, rung.cols, seed, /*smoothing=*/3);
}

namespace {

/// Throws unless `result` is a valid labeling of `image` under the
/// labeler's default connectivity, so no bench reports the time of a wrong
/// answer. Called outside every timed region.
void check_labeling(const Labeler& labeler, const BinaryImage& image,
                    const LabelResponse& result) {
  const analysis::ValidationResult v =
      analysis::validate_labeling(image, result.labels, result.num_components,
                                  labeler.default_connectivity());
  if (!v.ok) {
    throw std::runtime_error(std::string(labeler.name()) +
                             " produced an invalid labeling: " + v.error);
  }
}

/// Run `request` `reps` times on one scratch warmed by an untimed first
/// run, validating the first timed rep; `rep(result, ms)` sees each
/// timed rep's result and wall time.
template <class OnRep>
void time_warm_reps(const Labeler& labeler, const BinaryImage& image,
                    int reps, OnRep&& rep) {
  LabelScratch scratch;
  const LabelRequest request{.input = image};
  scratch.recycle_plane(labeler.run(request, scratch).labels);
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    LabelResponse result = labeler.run(request, scratch);
    const double ms = t.elapsed_ms();
    if (i == 0) check_labeling(labeler, image, result);
    rep(result, ms);
    scratch.recycle_plane(std::move(result.labels));
  }
}

}  // namespace

double time_labeler_ms(const Labeler& labeler, const BinaryImage& image,
                       int reps) {
  double best = 0.0;
  bool first = true;
  time_warm_reps(labeler, image, reps,
                 [&](const LabelResponse&, double ms) {
                   if (first || ms < best) best = ms;
                   first = false;
                 });
  return best;
}

PhaseTimings time_labeler_phases(const Labeler& labeler,
                                 const BinaryImage& image, int reps) {
  PhaseTimings best;
  bool first = true;
  time_warm_reps(labeler, image, reps,
                 [&](const LabelResponse& result, double) {
                   if (first || result.timings.total_ms < best.total_ms) {
                     best = result.timings;
                   }
                   first = false;
                 });
  return best;
}

Summary family_summary(const Labeler& labeler,
                       const std::vector<DatasetImage>& images, int reps) {
  std::vector<double> times;
  times.reserve(images.size());
  for (const auto& img : images) {
    times.push_back(time_labeler_ms(labeler, img.image, reps));
  }
  return summarize(times);
}

std::vector<int> sweep_thread_counts(const std::vector<int>& paper_counts) {
  std::vector<int> counts;
  const int cap = bench_max_threads();
  for (const int t : paper_counts) {
    if (t <= cap) counts.push_back(t);
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

std::string oversubscription_note(int threads) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return (hw > 0 && threads > hw) ? " *" : "";
}

}  // namespace paremsp::bench
