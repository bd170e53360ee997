// Shared benchmark infrastructure: synthetic dataset families matching the
// paper's corpora (DESIGN.md substitution S2/S3), timing helpers, and the
// paper's published numbers for side-by-side "paper vs measured" tables.
//
// Environment knobs (all optional):
//   PAREMSP_BENCH_SCALE        linear pixel-count multiplier, default 1.0
//                              (1.0 = 1/16th of the paper's NLCD sizes; 16
//                              regenerates paper-scale images if you have
//                              the memory and patience)
//   PAREMSP_BENCH_REPS         repetitions per measurement, default 3
//                              (the best run is reported, like the paper)
//   PAREMSP_BENCH_MAX_THREADS  cap on benchmarked thread counts, default 24
//                              (the paper's maximum; points beyond the
//                              physical core count are flagged in output)
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/labeling.hpp"
#include "core/registry.hpp"
#include "image/raster.hpp"

namespace paremsp::bench {

/// One benchmark input image.
struct DatasetImage {
  std::string name;
  BinaryImage image;
};

/// One rung of the NLCD size ladder (paper Table III).
struct NlcdRung {
  std::string name;      // "image 1" ... "image 6"
  double paper_mb;       // size reported in Table III
  Coord rows = 0;
  Coord cols = 0;
  [[nodiscard]] double scaled_mb() const {
    return static_cast<double>(rows) * cols / 1e6;
  }
};

// --- Knobs -------------------------------------------------------------------

double bench_scale();
int bench_reps();
int bench_max_threads();

/// Where a bench trajectory JSON (BENCH_*.json) belongs: the directory
/// named by PAREMSP_BENCH_DIR when set, else the repository root (baked
/// in at configure time) — but only for FULL-SIZE runs (bench_scale()
/// == 1.0). Scaled smoke runs without an explicit PAREMSP_BENCH_DIR
/// write "smoke.<filename>" into the current directory, so they can
/// never clobber a committed trajectory artifact even when launched
/// from the repo root. Keeps the canonical artifacts at the repo root
/// no matter which build tree a full-size bench runs from.
std::string artifact_path(const std::string& filename);

/// Print the standard header (environment, scale, reps) for a bench binary.
void print_banner(const std::string& title);

// --- Dataset families -----------------------------------------------------------

/// USC-SIPI-like small-image families (paper: images of 1 MB or less).
std::vector<DatasetImage> texture_family();
std::vector<DatasetImage> aerial_family();
std::vector<DatasetImage> misc_family();

/// Moderate NLCD-like images for the table benches (first rungs of the
/// ladder); the full ladder drives the Figure-5 bench.
std::vector<DatasetImage> nlcd_family();

/// All four families in the paper's row order with their display names.
struct Family {
  std::string name;
  std::vector<DatasetImage> images;
};
std::vector<Family> all_families();

/// The six-image NLCD ladder of paper Table III, scaled.
std::vector<NlcdRung> nlcd_ladder();

/// Generate the binary image for a ladder rung.
BinaryImage make_nlcd_image(const NlcdRung& rung);

// --- Timing ----------------------------------------------------------------------

// Both timers run one untimed warm-up request, then time
// Labeler::run(request, scratch) on that one warm LabelScratch, handing
// each plane back between reps, so a rep times labeling rather than the
// first touch of fresh pages. They validate the first timed rep's
// labeling (analysis::validate_labeling, outside the timed region) and
// throw on a wrong one, so a bench exits nonzero instead of timing it.

/// Best-of-reps end-to-end time.
double time_labeler_ms(const Labeler& labeler, const BinaryImage& image,
                       int reps);

/// Phase timings of the best-of-reps run (by total time).
PhaseTimings time_labeler_phases(const Labeler& labeler,
                                 const BinaryImage& image, int reps);

/// Best-of-reps per image, summarized over a family (min/avg/max across
/// images — exactly the statistics of paper Tables II and IV).
Summary family_summary(const Labeler& labeler,
                       const std::vector<DatasetImage>& images, int reps);

/// The thread counts a speedup sweep should use: the paper's counts,
/// capped by PAREMSP_BENCH_MAX_THREADS.
std::vector<int> sweep_thread_counts(const std::vector<int>& paper_counts);

/// " (oversubscribed)" marker when `threads` exceeds physical cores.
std::string oversubscription_note(int threads);

}  // namespace paremsp::bench
