#include "workloads.hpp"

#include <stdexcept>

#include "core/registry.hpp"
#include "image/generators.hpp"

namespace perfbench {

namespace gen = paremsp::gen;
using paremsp::Coord;

paremsp::LabelRequest Input::request() const {
  paremsp::LabelRequest request;
  request.input = view;
  request.connectivity = paremsp::Connectivity::Eight;
  request.threshold = threshold;
  request.outputs.stats = stats;
  return request;
}

std::int64_t Workload::oneshot_pixels() const {
  std::int64_t px = 0;
  for (const Input& in : oneshot) px += in.view.size();
  return px;
}

std::size_t Workload::image_bytes() const {
  std::size_t bytes = 0;
  for (const auto& b : binaries) bytes += static_cast<std::size_t>(b.size());
  for (const auto& g : grays) bytes += static_cast<std::size_t>(g.size());
  return bytes;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "huge_landcover", "huge_noise", "service_mix"};
  return names;
}

namespace {

/// Label `in` with sequential AREMSP and record the plane's hash, the
/// count and the component stats. The stats come from the post-pass over
/// the plane, whose memory grows with components, not with the label
/// space a fused-stats run reserves.
void compute_reference(Input& in) {
  static const auto aremsp = paremsp::make_labeler(paremsp::Algorithm::Aremsp);
  paremsp::LabelRequest request = in.request();
  request.outputs.stats = false;
  const paremsp::LabelResponse r = aremsp->run(request);
  in.ref.hash = hash_labels(r.labels);
  in.ref.components = r.num_components;
  in.ref.stats = paremsp::analysis::compute_stats(r.labels, r.num_components);
}

Input make_input(paremsp::ConstImageView view, std::optional<double> threshold,
                 bool stats) {
  Input in;
  in.view = view;
  in.threshold = threshold;
  in.stats = stats;
  compute_reference(in);
  return in;
}

/// Service pools cut from one big source image: `counts` random windows
/// per class (small and gray are `small` square, large is `large`
/// square). The gray class adds component stats; `threshold` applies to
/// every class (grayscale sources).
void add_window_pools(Workload& w, paremsp::ConstImageView source,
                      std::optional<double> threshold,
                      std::optional<double> gray_threshold, Coord small,
                      Coord large, std::array<int, kClasses> counts,
                      Rng& rng) {
  for (int c = 0; c < kClasses; ++c) {
    const Coord side = c == 2 ? large : small;
    for (int i = 0; i < counts[static_cast<std::size_t>(c)]; ++i) {
      const auto r0 = static_cast<Coord>(rng.below(
          static_cast<std::uint64_t>(source.rows() - side + 1)));
      const auto c0 = static_cast<Coord>(rng.below(
          static_cast<std::uint64_t>(source.cols() - side + 1)));
      const bool gray = c == 1;
      w.service[static_cast<std::size_t>(c)].push_back(
          make_input(source.subview(r0, c0, side, side),
                     gray ? gray_threshold : threshold, gray));
    }
  }
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  Rng rng(seed ^ 0x5EEDull);
  const Coord huge = tiny ? 1024 : 8192;
  const Coord small = tiny ? 128 : 512;
  const Coord large = tiny ? 256 : 2048;
  const std::array<int, kClasses> pool_counts =
      tiny ? std::array<int, kClasses>{6, 3, 1}
           : std::array<int, kClasses>{48, 16, 16};
  if (tiny) w.slab_rows = 64;

  if (name == "huge_landcover" || name == "huge_noise") {
    const bool landcover = name == "huge_landcover";
    w.binaries.push_back(landcover
                             ? gen::landcover_like(huge, huge, seed)
                             : gen::uniform_noise(huge, huge, 0.5, seed));
    const paremsp::ConstImageView raster = w.binaries.back();
    w.oneshot.push_back(make_input(raster, std::nullopt, false));
    // The stream re-labels the same raster slab by slab (reference with
    // stats already computed above).
    w.stream = w.oneshot.back();
    w.stream.stats = true;
    // Gray-class requests run the threshold front end over the binary
    // pixels (level 0: foreground = nonzero) and ask for stats.
    add_window_pools(w, raster, std::nullopt, 0.0, small, large, pool_counts,
                     rng);
    w.nominal_rate = landcover ? 400.0 : 180.0;
    w.limit_ms = landcover ? 150.0 : 250.0;
  } else if (name == "service_mix") {
    const int per_family = tiny ? 2 : 8;
    for (int i = 0; i < per_family; ++i) {
      w.binaries.push_back(gen::texture_like(small, small, rng.next()));
      w.binaries.push_back(gen::aerial_like(small, small, rng.next()));
      w.binaries.push_back(gen::misc_like(small, small, rng.next()));
      w.grays.push_back(gen::plasma(small, small, rng.next()));
    }
    for (const auto& b : w.binaries) {
      w.service[0].push_back(make_input(b, std::nullopt, false));
    }
    for (const auto& g : w.grays) {
      w.service[1].push_back(make_input(g, 0.5, true));
    }
    for (int i = 0; i < (tiny ? 1 : 6); ++i) {
      w.binaries.push_back(gen::landcover_like(large, large, rng.next()));
      w.service[2].push_back(
          make_input(w.binaries.back(), std::nullopt, false));
    }
    for (const auto& pool : w.service) {
      w.oneshot.insert(w.oneshot.end(), pool.begin(), pool.end());
    }
    w.grays.push_back(gen::plasma(tiny ? 2048 : 16384, small, rng.next()));
    w.stream = make_input(w.grays.back(), 0.5, true);
    w.nominal_rate = 450.0;
    w.limit_ms = 150.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
