// Labeling-as-a-service demo: floods the batch engine with a stream of
// mixed-size generated images from several concurrent producer threads —
// the production workload the engine exists for (millions of small
// requests), scaled down to a runnable example.
//
// Each producer simulates one client speaking the unified request API: it
// submits bursts of LabelRequests over zero-copy views of images it keeps
// alive for the burst (the request borrow contract), asks for fused
// per-component stats on a sample of them, consumes its LabelResponses
// (checking the label plane, count and stats of one per burst against
// sequential AREMSP, the oracle every executor must match bit for bit),
// and recycles the label planes back to the engine. The main thread prints a
// live stats line (throughput, p50/p99 latency, arena state) while the
// flood runs, then shuts the engine down cleanly and reports totals.
//
// Observability surfaces (all optional flags):
//   --trace out.json         record the whole flood in a TraceSession and
//                            write a Perfetto-loadable Chrome trace (one
//                            track per engine worker)
//   --prom out.prom          Prometheus text exposition of the metrics
//                            registry after the run
//   --metrics-json out.json  the same snapshot as JSON
//   --sharded 1              also push one run-scan sharded request
//                            through the pool (the four shard.* phases
//                            show up per worker in the trace)
//   --stream 1               also run a streaming slab session: a tall
//                            image pushed through the pool in row-band
//                            slabs (stream.slab spans in the trace),
//                            verified against one-shot labeling
//   --deadline-ms D          QoS demo: a burst of requests with a D ms
//                            deadline (D=0 off). With a tight budget
//                            some jobs shed — the engine_jobs_shed
//                            counter and the per-request
//                            DeadlineExceededError are the point.
// The run always ends with a timings reconcile: one large request's
// phase sums must match its end-to-end time within 5%.
//
//   $ ./labeling_service --producers 4 --requests 200 --workers 0 \
//       --trace trace.json --prom metrics.prom --stream 1 --deadline-ms 50
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"
#include "engine/stream_session.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/slab_session.hpp"

namespace {

using namespace paremsp;

/// A client request image: sizes cycle through a small/medium/large mix
/// and content through the synthetic dataset families.
BinaryImage make_request_image(int producer, int index) {
  static constexpr Coord kSides[] = {64, 96, 128, 192, 256, 384};
  const Coord side = kSides[(producer + index) % std::size(kSides)];
  const std::uint64_t seed = 7919ULL * static_cast<std::uint64_t>(producer) +
                             static_cast<std::uint64_t>(index);
  switch (index % 3) {
    case 0: return gen::landcover_like(side, side, seed);
    case 1: return gen::aerial_like(side, side, seed);
    default: return gen::texture_like(side, side, seed);
  }
}

/// One in-flight request: the borrowed image must outlive the future.
struct Pending {
  int index = 0;
  BinaryImage image;  // request.input views this (heap-stable under moves)
  std::future<LabelResponse> future;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("labeling_service: flood the batch engine with requests");
  cli.add_option("producers", "4", "concurrent client threads");
  cli.add_option("requests", "200", "requests per producer");
  cli.add_option("workers", "0", "engine workers (0 = hardware)");
  cli.add_option("queue", "64", "job-queue capacity (backpressure bound)");
  cli.add_option("algorithm",
                 std::string(algorithm_info(engine::EngineConfig{}.algorithm)
                                 .name),
                 "registry algorithm to serve with");
  cli.add_flag("list-algorithms",
               "print the algorithm catalog with capability flags and exit");
  cli.add_option("trace", "", "write a Chrome trace JSON of the run here");
  cli.add_option("prom", "", "write Prometheus text metrics here");
  cli.add_option("metrics-json", "", "write a JSON metrics snapshot here");
  cli.add_option("sharded", "1", "also run one sharded run-scan request");
  cli.add_option("stream", "1", "also run one streaming slab session");
  cli.add_option("deadline-ms", "0",
                 "QoS demo: request deadline in ms (0 = off)");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_flag("list-algorithms")) {
    TextTable table("algorithm catalog");
    table.set_header({"name", "parallel", "4-conn", "fused stats",
                      "scratch reuse", "description"});
    for (const auto& info : algorithm_catalog()) {
      table.add_row({std::string(info.name), info.parallel ? "yes" : "-",
                     info.supports_four_connectivity ? "yes" : "-",
                     info.fused_stats ? "yes" : "-",
                     info.scratch_reuse ? "yes" : "-",
                     std::string(info.description)});
    }
    std::cout << table.to_string();
    return 0;
  }

  const int producers = cli.get_int("producers");
  const int requests = cli.get_int("requests");
  const std::string trace_path = cli.get("trace");
  const std::string prom_path = cli.get("prom");
  const std::string metrics_json_path = cli.get("metrics-json");
  const bool sharded_side = cli.get_int("sharded") != 0;
  const bool stream_side = cli.get_int("stream") != 0;
  const int deadline_ms = cli.get_int("deadline-ms");

  engine::EngineConfig config;
  config.workers = cli.get_int("workers");
  config.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  config.algorithm = algorithm_from_name(cli.get("algorithm"));
  engine::LabelingEngine eng(config);
  std::cout << "engine: " << eng.workers() << " worker(s), queue capacity "
            << config.queue_capacity << ", algorithm "
            << algorithm_info(config.algorithm).name << "\n";

  // The session (when asked for) covers the flood, the sharded request
  // and the reconcile request, so every span lands in one trace file.
  std::unique_ptr<obs::TraceSession> session;
  if (!trace_path.empty()) session = std::make_unique<obs::TraceSession>();

  std::atomic<int> done_producers{0};
  std::atomic<int> wrong_counts{0};

  std::vector<std::thread> clients;
  for (int p = 0; p < producers; ++p) {
    clients.emplace_back([&, p] {
      // The oracle, not the served algorithm: the engine must match
      // sequential AREMSP at the workers' 8-connectivity bit for bit.
      const auto reference = make_labeler(Algorithm::Aremsp);
      // In-flight window per client: submit a burst, then drain it. The
      // burst vector owns the images the requests borrow.
      constexpr int kBurst = 16;
      std::vector<Pending> burst;
      burst.reserve(kBurst);
      int next = 0;
      while (next < requests || !burst.empty()) {
        while (next < requests && static_cast<int>(burst.size()) < kBurst) {
          Pending pending;
          pending.index = next;
          pending.image = make_request_image(p, next);
          LabelRequest request;
          request.input = pending.image;  // zero-copy borrow
          // Sample fused stats on one request per burst: same job, the
          // features accumulate inside the labeling scan.
          request.outputs.stats = (next % kBurst == 0);
          pending.future = eng.submit(std::move(request));
          burst.push_back(std::move(pending));
          ++next;
        }
        for (Pending& pending : burst) {
          LabelResponse response = pending.future.get();
          // Spot-check one request per burst against the oracle, before
          // its plane goes back to the engine.
          if (pending.index % kBurst == 0) {
            LabelRequest check;
            check.input = pending.image;
            check.outputs.stats = true;
            const LabelResponse want = reference->run(check);
            if (want.num_components != response.num_components ||
                want.labels != response.labels ||
                !response.stats.has_value() ||
                response.stats->components != want.stats->components) {
              wrong_counts.fetch_add(1);
            }
          }
          eng.recycle(std::move(response.labels));
        }
        burst.clear();
      }
      done_producers.fetch_add(1);
    });
  }

  // Live stats while the flood runs.
  while (done_producers.load() < producers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const auto s = eng.stats();
    std::cout << "  in flight: " << s.jobs_submitted - s.jobs_completed
              << "  done: " << s.jobs_completed << "/"
              << s.jobs_submitted << "  " << TextTable::num(s.images_per_sec, 0)
              << " img/s  p50 " << TextTable::num(s.latency_p50_ms, 2)
              << " ms  p99 " << TextTable::num(s.latency_p99_ms, 2)
              << " ms\n";
  }
  for (std::thread& c : clients) c.join();

  // One run-scan sharded request across the pool: its rle.scan.tile /
  // rle.merge.tile / rle.flatten / rle.rewrite.tile spans appear on every
  // worker that helped, under one shard.request span.
  if (sharded_side) {
    const BinaryImage huge = gen::landcover_like(768, 768, 99);
    LabelRequest request;
    request.input = huge;
    request.shard = ShardOptions{.tile_rows = 256, .tile_cols = 256};
    LabelResponse response = eng.submit(std::move(request)).get();
    const PhaseCounters& c = response.timings.counters;
    std::cout << "sharded run-scan: " << response.num_components
              << " components over " << c.tiles << " tiles, "
              << c.runs_extracted << " runs, " << c.total_unions()
              << " unions (" << c.merge_retries << " retried), queue wait "
              << TextTable::num(response.timings.queue_wait_ms, 3) << " ms\n";
    eng.recycle(std::move(response.labels));
  }

  // One streaming slab session through the pool: a tall image labeled in
  // row-band slabs carrying only seam state between them, verified
  // against the one-shot result of the same pixels.
  if (stream_side) {
    const Coord rows = 2048;
    const Coord cols = 512;
    const BinaryImage tall = gen::landcover_like(rows, cols, 41);
    LabelRequest reference_request;
    reference_request.input = ConstImageView(tall);
    const LabelResponse want =
        make_labeler(Algorithm::AremspRle)->run(reference_request);

    engine::StreamConfig stream_config;
    stream_config.options.cols = cols;
    auto stream = eng.open_stream(stream_config);
    constexpr Coord kSlabRows = 64;
    std::vector<std::future<stream::SlabResult>> slabs;
    for (Coord r = 0; r < rows; r += kSlabRows) {
      slabs.push_back(stream->push_slab(
          ConstImageView(tall).subview(r, 0, std::min(kSlabRows, rows - r),
                                       cols)));
    }
    std::size_t carried = 0;
    for (auto& f : slabs) {
      stream::SlabResult slab = f.get();
      carried += slab.open_components;
      stream->recycle(std::move(slab.labels));
    }
    const stream::StreamResult done = stream->finish().get();
    const bool stream_ok = done.num_components == want.num_components;
    std::cout << "streaming session: " << done.slabs << " slabs, "
              << done.num_components << " components (one-shot "
              << want.num_components << "), mean "
              << TextTable::num(
                     static_cast<double>(carried) /
                         static_cast<double>(done.slabs ? done.slabs : 1),
                     1)
              << " open components carried per seam: "
              << (stream_ok ? "OK" : "MISMATCH") << "\n";
    if (!stream_ok) {
      std::cerr << "streaming result differs from one-shot labeling\n";
      return 1;
    }
  }

  // QoS demo: the same burst with a deadline attached. With a generous
  // budget everything completes; with a tight one the queue tail sheds
  // before any pixel work is wasted on it.
  if (deadline_ms > 0) {
    const BinaryImage qos_image = gen::landcover_like(512, 512, 13);
    constexpr int kQosBurst = 32;
    std::vector<std::future<LabelResponse>> qos;
    qos.reserve(kQosBurst);
    for (int i = 0; i < kQosBurst; ++i) {
      LabelRequest request;
      request.input = ConstImageView(qos_image);
      request.deadline = std::chrono::milliseconds(deadline_ms);
      qos.push_back(eng.submit(std::move(request)));
    }
    int served = 0;
    int shed = 0;
    for (auto& f : qos) {
      try {
        LabelResponse response = f.get();
        ++served;
        eng.recycle(std::move(response.labels));
      } catch (const DeadlineExceededError&) {
        ++shed;
      }
    }
    std::cout << "deadline " << deadline_ms << " ms: " << served
              << " served, " << shed << " shed of " << kQosBurst << "\n";
  }

  // Reconcile: an instrumented request's four phase timers must cover its
  // end-to-end wall time within 5% — the per-phase numbers are only worth
  // exporting if they actually add up. Large image so the phases dwarf
  // timer overhead; best mismatch of a few attempts rides out scheduler
  // noise.
  bool reconcile_ok = true;
  {
    const BinaryImage big = gen::landcover_like(1024, 1024, 7);
    double best_error = 1.0;
    double sum_ms = 0.0;
    double total_ms = 0.0;
    bool instrumented = false;
    for (int attempt = 0; attempt < 3 && best_error > 0.05; ++attempt) {
      LabelRequest request;
      request.input = big;
      LabelResponse response = eng.submit(std::move(request)).get();
      if (response.timings.counters.provisional_labels == 0) break;
      instrumented = true;
      const double total = response.timings.total_ms;
      const double sum = response.timings.phase_sum_ms();
      const double error =
          total > 0.0 ? std::abs(total - sum) / total : 1.0;
      if (error < best_error) {
        best_error = error;
        sum_ms = sum;
        total_ms = total;
      }
      eng.recycle(std::move(response.labels));
    }
    if (instrumented) {
      reconcile_ok = best_error <= 0.05;
      std::cout << "phase reconcile: sum " << TextTable::num(sum_ms, 3)
                << " ms vs total " << TextTable::num(total_ms, 3) << " ms ("
                << TextTable::num(best_error * 100.0, 2) << "% apart): "
                << (reconcile_ok ? "OK" : "FAIL") << "\n";
    } else {
      std::cout << "phase reconcile: skipped ("
                << algorithm_info(config.algorithm).name
                << " does not fill phase counters)\n";
    }
  }

  eng.shutdown();

  if (session) {
    const obs::TraceReport report = session->stop();
    std::ofstream out(trace_path);
    obs::write_chrome_trace(out, report, "labeling_service");
    std::cout << "wrote " << trace_path << " (" << report.total_events()
              << " events, " << report.total_dropped() << " dropped)\n";
  }
  if (!prom_path.empty() || !metrics_json_path.empty()) {
    eng.publish_metrics();
    const obs::MetricsSnapshot snap = obs::metrics_snapshot();
    if (!prom_path.empty()) {
      std::ofstream out(prom_path);
      obs::write_prometheus_text(out, snap);
      std::cout << "wrote " << prom_path << "\n";
    }
    if (!metrics_json_path.empty()) {
      std::ofstream out(metrics_json_path);
      obs::write_metrics_json(out, snap);
      std::cout << "wrote " << metrics_json_path << "\n";
    }
  }

  const auto s = eng.stats();
  TextTable table("service totals");
  table.set_header({"metric", "value"});
  table.add_row({"requests served", std::to_string(s.jobs_completed)});
  table.add_row({"pixels labeled", std::to_string(s.pixels_labeled)});
  table.add_row({"throughput [img/s]", TextTable::num(s.images_per_sec, 1)});
  table.add_row(
      {"throughput [Mpx/s]", TextTable::num(s.mpixels_per_sec, 1)});
  table.add_row({"latency p50 [ms]", TextTable::num(s.latency_p50_ms, 2)});
  table.add_row({"latency p90 [ms]", TextTable::num(s.latency_p90_ms, 2)});
  table.add_row({"latency p99 [ms]", TextTable::num(s.latency_p99_ms, 2)});
  table.add_row({"latency max [ms]", TextTable::num(s.latency_max_ms, 2)});
  table.add_row({"arena bytes", std::to_string(s.scratch_reserved_bytes)});
  table.add_row({"arena grows", std::to_string(s.scratch_grow_count)});
  table.add_row({"plane reuses", std::to_string(s.plane_reuses)});
  table.add_row({"jobs shed (deadline)", std::to_string(s.jobs_shed)});
  table.add_row({"jobs cancelled", std::to_string(s.jobs_cancelled)});
  table.add_row({"stream slabs", std::to_string(s.stream_slabs_completed)});
  std::cout << table.to_string();

  if (wrong_counts.load() > 0) {
    std::cerr << wrong_counts.load() << " spot-check(s) failed\n";
    return 1;
  }
  if (!reconcile_ok) {
    std::cerr << "phase timings do not reconcile with end-to-end latency\n";
    return 1;
  }
  std::cout << "all spot-checks matched sequential aremsp\n";
  return 0;
}
