// Seeded workload generation. Every workload carries the inputs of all
// three paths the benchmark drives, so every end-to-end metric is measured
// on every workload:
//
//   one-shot   the inputs each one-shot executor labels per repetition;
//   stream     one tall image pushed slab by slab through a session;
//   service    request pools (small / gray / large classes) that the
//              open-loop generator draws from, with the nominal rate and
//              the p99 latency limit (also every request's deadline).
//
// Each input carries its sequential AREMSP reference (label-plane hash,
// component count, component stats), computed here, outside any timing.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "image/raster.hpp"
#include "image/view.hpp"
#include "measure.hpp"

namespace perfbench {

inline constexpr int kClasses = 3;
inline constexpr std::array<const char*, kClasses> kClassNames = {
    "small", "gray", "large"};

/// One labeling input and its reference outcome.
struct Input {
  paremsp::ConstImageView view;
  std::optional<double> threshold;  // grayscale input when set
  bool stats = false;               // request asks for component stats
  Reference ref;

  /// The request every executor receives for this input (label plane on).
  [[nodiscard]] paremsp::LabelRequest request() const;
};

struct Workload {
  std::string name;
  std::deque<paremsp::BinaryImage> binaries;  // owned pixels (stable)
  std::deque<paremsp::GrayImage> grays;

  std::vector<Input> oneshot;
  Input stream;
  paremsp::Coord slab_rows = 256;
  std::array<std::vector<Input>, kClasses> service;
  std::array<double, kClasses> class_share = {0.70, 0.25, 0.05};
  double nominal_rate = 0.0;  // img/s
  double limit_ms = 0.0;      // p99 limit and per-request deadline

  [[nodiscard]] std::int64_t oneshot_pixels() const;
  /// Bytes of pixel storage the workload generated.
  [[nodiscard]] std::size_t image_bytes() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` from `seed`. `tiny` shrinks every image so the
/// smoke tests finish in seconds.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool tiny);

/// Deterministic 64-bit generator (splitmix64) for inputs and schedules.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
