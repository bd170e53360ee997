// Umbrella header: everything a library user typically needs.
//
//   #include "core/paremsp_all.hpp"
//
//   auto image = paremsp::gen::landcover_like(2048, 2048, /*seed=*/1);
//   auto labeler = paremsp::make_labeler(paremsp::Algorithm::Paremsp);
//   auto result = labeler->label(image);
#pragma once

#include "analysis/component_stats.hpp"
#include "analysis/feature_accumulator.hpp"
#include "analysis/equivalence.hpp"
#include "analysis/validation.hpp"
#include "baselines/arun.hpp"
#include "baselines/ccllrpc.hpp"
#include "baselines/flood_fill.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/grayscale.hpp"
#include "core/label_scratch.hpp"
#include "core/labeling.hpp"
#include "core/paremsp.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "core/rle_labelers.hpp"
#include "core/runs.hpp"
#include "engine/engine.hpp"
#include "image/ascii.hpp"
#include "image/connectivity.hpp"
#include "image/generators.hpp"
#include "image/pnm_io.hpp"
#include "image/raster.hpp"
#include "image/threshold.hpp"
#include "image/view.hpp"
