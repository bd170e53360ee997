#include "core/registry.hpp"

#include <array>
#include <string>

#include "baselines/arun.hpp"
#include "baselines/ccllrpc.hpp"
#include "baselines/flood_fill.hpp"
#include "common/contracts.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/paremsp.hpp"
#include "core/rle_labelers.hpp"

namespace paremsp {

namespace {

constexpr std::array<AlgorithmInfo, 9> kCatalog{{
    {Algorithm::FloodFill, "floodfill",
     "BFS flood fill (ground-truth oracle)", false, true, false, true},
    {Algorithm::Arun, "arun", "He 2012 two-line two-scan (rtable)", false,
     false, false, false},
    {Algorithm::Ccllrpc, "ccllrpc",
     "Wu 2009 decision tree + array union-find", false, true, false, true},
    {Algorithm::Cclremsp, "cclremsp",
     "paper: decision tree + REM splicing union-find", false, true, true,
     true},
    {Algorithm::Aremsp, "aremsp",
     "paper: two-line scan + REM splicing union-find", false, false, true,
     true, true},
    {Algorithm::Paremsp, "paremsp",
     "paper: parallel AREMSP (fork-join, boundary merge)", true, false, true,
     true, true},
    {Algorithm::ParemspTiled, "paremsp2d",
     "extension: 2-D tiled PAREMSP (run scan, run seam merges)", true, true,
     false, true, true},
    {Algorithm::AremspRle, "aremsp_rle",
     "extension: run-based AREMSP (bit-packed rows, run merging)", false,
     true, false, true, true},
    {Algorithm::ParemspRle, "paremsp_rle",
     "extension: run-based PAREMSP (row bands, boundary-run merge)", true,
     true, false, true, true},
}};

}  // namespace

std::span<const AlgorithmInfo> algorithm_catalog() noexcept {
  return kCatalog;
}

const AlgorithmInfo& algorithm_info(Algorithm a) {
  for (const auto& info : kCatalog) {
    if (info.id == a) return info;
  }
  throw PreconditionError("unknown algorithm id");
}

Algorithm algorithm_from_name(std::string_view name) {
  for (const auto& info : kCatalog) {
    if (info.name == name) return info.id;
  }
  throw PreconditionError("unknown algorithm name: " + std::string(name));
}

void require_supported(Algorithm algorithm, Connectivity connectivity) {
  const AlgorithmInfo& info = algorithm_info(algorithm);
  PAREMSP_REQUIRE(info.supports(connectivity),
                  std::string(info.name) + " does not support " +
                      to_string(connectivity));
}

std::unique_ptr<Labeler> make_labeler(Algorithm algorithm,
                                      const LabelerOptions& options) {
  require_supported(algorithm, options.connectivity);
  const RleConfig rle_config{.threads = options.threads};

  switch (algorithm) {
    case Algorithm::FloodFill:
      return std::make_unique<FloodFillLabeler>(options.connectivity);
    case Algorithm::Arun:
      return std::make_unique<ArunLabeler>(options.connectivity);
    case Algorithm::Ccllrpc:
      return std::make_unique<CcllrpcLabeler>(options.connectivity);
    case Algorithm::Cclremsp:
      return std::make_unique<CclremspLabeler>(options.connectivity);
    case Algorithm::Aremsp:
      return std::make_unique<AremspLabeler>(options.connectivity);
    case Algorithm::Paremsp:
      return std::make_unique<ParemspLabeler>(
          ParemspConfig{.threads = options.threads});
    case Algorithm::AremspRle:
      return std::make_unique<AremspRleLabeler>(options.connectivity);
    case Algorithm::ParemspRle:
      return std::make_unique<ParemspRleLabeler>(rle_config,
                                                 options.connectivity);
    case Algorithm::ParemspTiled:
      return std::make_unique<TiledParemspLabeler>(rle_config,
                                                   options.connectivity);
  }
  throw PreconditionError("unknown algorithm id");
}

}  // namespace paremsp
