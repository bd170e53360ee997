// The engine's sharded request path — see sharded_labeler.hpp.
#include "engine/sharded_labeler.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "common/contracts.hpp"
#include "core/registry.hpp"
#include "core/rle_labelers.hpp"
#include "engine/engine.hpp"
#include "obs/trace.hpp"

namespace paremsp::engine {

void LabelingEngine::submit_sharded(Job job) {
  const ShardOptions& options = *job.request.shard;
  PAREMSP_REQUIRE(options.tile_rows >= 1 && options.tile_cols >= 1,
                  "shard tiles must be at least 1x1");
  // Shared request gate: the effective connectivity defaults exactly like
  // the worker path (request override, else the engine's configured
  // labeler default). The pipeline is validated against the algorithm it
  // actually runs — tiled PAREMSP over runs, which admits both
  // connectivities — so request errors match Labeler::run's exactly.
  job.request.connectivity = validate_request(
      job.request, Algorithm::ParemspTiled, config_.labeler.connectivity);
  shards_submitted_.fetch_add(1, std::memory_order_relaxed);
  // A failed push leaves `job` untouched, promise included.
  if (!queue_.push(std::move(job))) {
    job.promise.set_exception(std::make_exception_ptr(PreconditionError(
        "LabelingEngine shut down before the sharded request ran")));
  }
}

void LabelingEngine::run_sharded(Job& job) {
  const LabelRequest& request = job.request;
  const double queue_wait_ms =
      std::chrono::duration<double, std::milli>(EngineStats::Clock::now() -
                                                job.submitted_at)
          .count();
  std::unique_ptr<LabelScratch> scratch;
  LabelResponse response;
  std::exception_ptr error;
  // The span closes before the promise is fulfilled, so a trace collected
  // right after future.get() already holds it.
  try {
    const obs::Span span("shard.request", "engine");
    check_qos(job);
    scratch = take_shard_scratch();
    // A stats- or count-only request skips the plane and the rewrite.
    const bool labels =
        request.outputs.labels || request.label_out.has_value();
    if (labels && !request.label_out.has_value()) {
      maybe_adopt_recycled(*scratch);
    }
    analysis::ComponentStats stats;
    response = label_runs_impl(
        request.input, *request.connectivity, *scratch,
        request.outputs.stats ? &stats : nullptr,
        {.tile_rows = request.shard->tile_rows,
         .tile_cols = request.shard->tile_cols,
         .threads = workers(),
         // Exact integer form of im2bw's compare (see LabelRequest).
         .threshold = request.threshold.has_value()
                          ? static_cast<int>(*request.threshold * 255.0)
                          : -1,
         .labels = labels,
         .label_out = request.label_out,
         .between_phases = [&] { check_qos(job); }});
    if (request.outputs.stats) response.stats = std::move(stats);
  } catch (...) {
    error = std::current_exception();
  }
  return_shard_scratch(std::move(scratch));
  if (error != nullptr) {
    job.promise.set_exception(std::move(error));
    return;
  }
  response.timings.queue_wait_ms = queue_wait_ms;
  // Count before fulfilling: a caller returning from future.get() must
  // already observe the completion in stats().
  shard_tasks_completed_.fetch_add(3 * response.timings.counters.tiles,
                                   std::memory_order_relaxed);
  shards_completed_.fetch_add(1, std::memory_order_relaxed);
  job.promise.set_value(std::move(response));
}

}  // namespace paremsp::engine
