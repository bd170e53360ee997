// Execution of the unified request API: Labeler::run builds on the
// per-algorithm run_impl hook and routes outputs per the request.
#include "core/request.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"

namespace paremsp {

Connectivity validate_request(const LabelRequest& request,
                              Algorithm algorithm, Connectivity fallback) {
  const Connectivity connectivity = request.connectivity.value_or(fallback);
  // Same gate as construction and make_labeler: one uniform
  // PreconditionError for an unsupported algorithm/connectivity pair.
  require_supported(algorithm, connectivity);
  if (request.threshold.has_value()) {
    PAREMSP_REQUIRE(*request.threshold >= 0.0 && *request.threshold <= 1.0,
                    "threshold must be within [0, 1]");
  }
  if (request.label_out.has_value()) {
    PAREMSP_REQUIRE(request.label_out->rows() == request.input.rows() &&
                        request.label_out->cols() == request.input.cols(),
                    "label_out dimensions must match the request input");
  }
  if (request.deadline.has_value()) {
    PAREMSP_REQUIRE(request.deadline->count() > 0,
                    "deadline budget must be a positive duration");
  }
  return connectivity;
}

LabelResponse Labeler::run(const LabelRequest& request) const {
  LabelScratch scratch;
  return run(request, scratch);
}

LabelResponse Labeler::run(const LabelRequest& request,
                           LabelScratch& scratch) const {
  const Connectivity connectivity =
      validate_request(request, algorithm(), default_connectivity());
  // Synchronous execution still honors cancellation at entry (the one
  // check point a blocking call has); the deadline budget is an engine
  // concern — there is no queue for a direct run to sit in.
  if (request.cancel.cancel_requested()) {
    throw CancelledError("request cancelled before labeling started");
  }

  analysis::ComponentStats stats;
  analysis::ComponentStats* stats_out =
      request.outputs.stats ? &stats : nullptr;
  // floor(threshold * 255) truncates exactly for threshold in [0, 1]:
  // pixel > threshold*255 <=> pixel > floor(threshold*255) for uint8.
  LabelResponse response =
      request.threshold.has_value()
          ? run_gray_impl(request.input,
                          static_cast<std::uint8_t>(*request.threshold * 255.0),
                          connectivity, scratch, stats_out)
          : run_impl(request.input, connectivity, scratch, stats_out);

  if (request.outputs.stats) response.stats = std::move(stats);
  // The caller routed the plane into their own (possibly strided)
  // storage, or did not ask for it: the scratch pool keeps the working
  // plane for the next run and the response carries none.
  if (request.label_out.has_value()) {
    copy_labels(response.labels, *request.label_out);
  }
  if (request.label_out.has_value() || !request.outputs.labels) {
    scratch.recycle_plane(std::exchange(response.labels, LabelImage{}));
  }
  return response;
}

}  // namespace paremsp
