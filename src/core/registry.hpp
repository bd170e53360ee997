// Algorithm registry and factory.
//
// Benchmarks, examples and tests enumerate algorithms through this one
// catalog instead of hard-coding constructor calls, so adding an algorithm
// is a one-line change here and everything downstream picks it up.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "core/labeling.hpp"
#include "core/paremsp.hpp"

namespace paremsp {

// `enum class Algorithm` lives in core/labeling.hpp (the Labeler base
// carries its own id); this header remains the catalog over those ids.

/// Catalog entry describing one algorithm.
struct AlgorithmInfo {
  Algorithm id;
  std::string_view name;         // stable CLI identifier
  std::string_view description;  // one-liner for --help / tables
  bool parallel = false;
  bool supports_four_connectivity = false;
  bool proposed_in_paper = false;  // vs baseline / oracle
  /// True when run(request, scratch) reuses a LabelScratch allocation-
  /// free; the batch engine runs these on recycled per-worker arenas (the
  /// rest fall back to per-call allocation with identical results).
  bool scratch_reuse = false;
  /// True when a stats request (outputs.stats) accumulates component
  /// features inside the labeling scan itself (one pass over the pixels)
  /// in the default configuration; the rest fall back to labeling +
  /// compute_stats with value-identical results.
  bool fused_stats = false;

  /// Whether this algorithm can label under `connectivity`. The single
  /// source of truth for connectivity support: make_labeler and the
  /// labeler constructors both consult it (via require_supported), so an
  /// unsupported combination always surfaces as the same
  /// PreconditionError — never an ad-hoc message or an abort.
  [[nodiscard]] constexpr bool supports(Connectivity connectivity) const
      noexcept {
    return connectivity == Connectivity::Eight || supports_four_connectivity;
  }
};

/// All algorithms, in the order the paper's tables list them (baselines
/// first, then the proposed ones).
[[nodiscard]] std::span<const AlgorithmInfo> algorithm_catalog() noexcept;

/// Catalog entry for one algorithm.
[[nodiscard]] const AlgorithmInfo& algorithm_info(Algorithm a);

/// Parse a CLI name (e.g. "aremsp"); throws PreconditionError if unknown.
[[nodiscard]] Algorithm algorithm_from_name(std::string_view name);

/// Options accepted by make_labeler (each algorithm uses what applies).
struct LabelerOptions {
  /// The labeler's DEFAULT connectivity: requests without an explicit
  /// LabelRequest::connectivity run under this; a request may override it
  /// per call (validated through require_supported either way).
  Connectivity connectivity = Connectivity::Eight;
  /// Worker threads (0 = every hardware thread) of the parallel labelers:
  /// paremsp, paremsp_rle and paremsp2d.
  int threads = 0;
};

/// Throw the registry's uniform PreconditionError when `algorithm` does
/// not support `connectivity` (per AlgorithmInfo::supports). Labeler
/// constructors call this instead of rolling their own checks so direct
/// construction and make_labeler reject identically.
void require_supported(Algorithm algorithm, Connectivity connectivity);

/// Construct a labeler.
[[nodiscard]] std::unique_ptr<Labeler> make_labeler(
    Algorithm algorithm, const LabelerOptions& options = {});

}  // namespace paremsp
