// Observability layer: span recording (nesting, thread attribution,
// drop-on-full, session epochs), metric registries, exporter golden
// files, the union-count oracle, and bit-identity of traced runs.
//
// Every suite here is named Obs* so the CI ThreadSanitizer job can pick
// the whole file up with one filter term — the span tests deliberately
// record from many threads while a collector runs, which is exactly the
// concurrency TSan should vet.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "engine/engine.hpp"
#include "engine/job_queue.hpp"
#include "engine/stream_session.hpp"
#include "image/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace paremsp {
namespace {

using engine::EngineConfig;
using engine::JobQueue;
using engine::LabelingEngine;

/// Find the collected trace for a thread by its registered name; null if
/// absent. Rings persist for the process lifetime, so reports may carry
/// (empty) threads from earlier tests — lookups go by name, never index.
const obs::ThreadTrace* find_thread(const obs::TraceReport& report,
                                    const std::string& name) {
  for (const obs::ThreadTrace& t : report.threads) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

/// Count events named `name` across every thread of the report.
std::size_t count_events(const obs::TraceReport& report, const char* name) {
  std::size_t n = 0;
  for (const obs::ThreadTrace& t : report.threads) {
    for (const obs::TraceEvent& e : t.events) {
      if (std::string_view(e.name) == name) ++n;
    }
  }
  return n;
}

// --- Span recording --------------------------------------------------------

TEST(ObsTrace, DisabledByDefaultAndSpansAreInert) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    obs::Span span("obs.test.unrecorded");
  }
  obs::TraceSession session;
  const obs::TraceReport report = session.stop();
  EXPECT_EQ(count_events(report, "obs.test.unrecorded"), 0u);
}

TEST(ObsTrace, NestedSpansRecordDepthAndBothLevels) {
  obs::set_thread_name("obs-main");
  obs::TraceSession session;
  ASSERT_TRUE(obs::tracing_enabled());
  {
    obs::Span outer("obs.test.outer");
    obs::Span inner("obs.test.inner", "detail");
  }
  const obs::TraceReport report = session.stop();
  EXPECT_FALSE(obs::tracing_enabled());
  const obs::ThreadTrace* mine = find_thread(report, "obs-main");
  ASSERT_NE(mine, nullptr);

  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const obs::TraceEvent& e : mine->events) {
    if (std::string_view(e.name) == "obs.test.outer") outer = &e;
    if (std::string_view(e.name) == "obs.test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_STREQ(inner->category, "detail");
  // The inner span nests inside the outer interval.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_GE(outer->dur_ns, 0);
}

TEST(ObsTrace, EventsAttributeToTheRecordingThread) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 8;
  obs::TraceSession session;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      obs::set_thread_name("obs-attr-" + std::to_string(i));
      for (int s = 0; s < kSpansPerThread; ++s) {
        obs::Span span("obs.test.attributed");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::TraceReport report = session.stop();
  std::set<std::uint64_t> seen_indices;
  for (int i = 0; i < kThreads; ++i) {
    const obs::ThreadTrace* t =
        find_thread(report, "obs-attr-" + std::to_string(i));
    ASSERT_NE(t, nullptr) << "thread " << i;
    EXPECT_EQ(t->events.size(), static_cast<std::size_t>(kSpansPerThread))
        << "thread " << i;
    EXPECT_EQ(t->dropped, 0u);
    seen_indices.insert(t->thread_index);
  }
  // Distinct threads occupy distinct tracks (distinct trace tids).
  EXPECT_EQ(seen_indices.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsTrace, FullRingDropsInsteadOfOverwriting) {
  constexpr std::size_t kCapacity = 4;
  constexpr int kRecorded = 11;
  obs::TraceSession session(kCapacity);
  // A fresh thread gets a fresh ring sized by the active session.
  std::thread recorder([] {
    obs::set_thread_name("obs-dropper");
    for (int i = 0; i < kRecorded; ++i) {
      obs::Span span("obs.test.drop");
    }
  });
  recorder.join();
  const obs::TraceReport report = session.stop();
  const obs::ThreadTrace* t = find_thread(report, "obs-dropper");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->events.size(), kCapacity);
  EXPECT_EQ(t->dropped, static_cast<std::uint64_t>(kRecorded - kCapacity));
  EXPECT_EQ(report.total_dropped(), t->dropped);
}

TEST(ObsTrace, BackToBackSessionsDoNotBleed) {
  obs::set_thread_name("obs-main");
  {
    obs::TraceSession first;
    obs::Span span("obs.test.first_session");
    // Destructor records before stop().
  }
  obs::TraceSession second;
  {
    obs::Span span("obs.test.second_session");
  }
  const obs::TraceReport report = second.stop();
  EXPECT_EQ(count_events(report, "obs.test.first_session"), 0u);
  EXPECT_EQ(count_events(report, "obs.test.second_session"), 1u);
}

TEST(ObsTrace, SpanOpenAcrossSessionStartIsNotRecorded) {
  // Events never straddle the session boundary: a span constructed while
  // tracing was off stays inert even if a session starts before it ends.
  auto span = std::make_unique<obs::Span>("obs.test.straddler");
  obs::TraceSession session;
  span.reset();
  const obs::TraceReport report = session.stop();
  EXPECT_EQ(count_events(report, "obs.test.straddler"), 0u);
}

TEST(ObsTrace, OnlyOneSessionMayBeAlive) {
  obs::TraceSession session;
  EXPECT_THROW(obs::TraceSession another, PreconditionError);
  (void)session.stop();
  obs::TraceSession after_stop;  // the slot frees on stop
  (void)after_stop.stop();
}

TEST(ObsTrace, StopIsIdempotent) {
  obs::TraceSession session;
  {
    obs::Span span("obs.test.once");
  }
  const obs::TraceReport first = session.stop();
  EXPECT_EQ(count_events(first, "obs.test.once"), 1u);
  const obs::TraceReport second = session.stop();
  EXPECT_EQ(second.total_events(), 0u);
}

TEST(ObsTrace, EmitSpanRecordsCallerMeasuredInterval) {
  obs::set_thread_name("obs-main");
  obs::TraceSession session;
  const std::int64_t start = obs::trace_now_ns() - 5'000'000;  // backdated
  obs::emit_span("obs.test.backdated", "engine", start, 2'000'000);
  const obs::TraceReport report = session.stop();
  const obs::ThreadTrace* mine = find_thread(report, "obs-main");
  ASSERT_NE(mine, nullptr);
  const obs::TraceEvent* e = nullptr;
  for (const obs::TraceEvent& ev : mine->events) {
    if (std::string_view(ev.name) == "obs.test.backdated") e = &ev;
  }
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dur_ns, 2'000'000);
  EXPECT_STREQ(e->category, "engine");
}

TEST(ObsTrace, ConcurrentRecordingIsRaceFreeUnderCollector) {
  // Hammer the rings from several threads while the main thread collects
  // mid-flight (forced-mode collect()) — the release/acquire count
  // protocol is what TSan checks here.
  constexpr int kWriters = 3;
  constexpr int kSpansPerWriter = 2000;
  obs::TraceSession session;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&done, i] {
      obs::set_thread_name("obs-hammer-" + std::to_string(i));
      for (int s = 0; s < kSpansPerWriter; ++s) {
        obs::Span span("obs.test.hammer");
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Collect mid-flight until every writer finishes: the collector reads
  // rings the writers are actively appending to.
  while (done.load(std::memory_order_relaxed) < kWriters) {
    const obs::TraceReport mid = obs::collect();
    (void)mid.total_events();
  }
  for (std::thread& t : writers) t.join();
  const obs::TraceReport report = session.stop();
  EXPECT_EQ(count_events(report, "obs.test.hammer") + report.total_dropped(),
            static_cast<std::size_t>(kWriters * kSpansPerWriter));
}

// --- Metrics registries ----------------------------------------------------

TEST(ObsMetrics, CountersInternByNameAndAccumulate) {
  obs::reset_metrics_for_test();
  obs::Counter& a = obs::counter("obs_test_events_total");
  obs::Counter& b = obs::counter("obs_test_events_total");
  EXPECT_EQ(&a, &b);  // same name, same counter
  a.add(40);
  b.increment();
  b.increment();
  EXPECT_EQ(a.value(), 42u);

  obs::Gauge& g = obs::gauge("obs_test_depth");
  g.set(3.0);
  g.set_max(7.5);
  g.set_max(2.0);  // lower than current: ignored
  EXPECT_DOUBLE_EQ(g.value(), 7.5);

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  bool found_counter = false;
  bool found_gauge = false;
  for (const auto& c : snap.counters) {
    if (c.name == "obs_test_events_total") {
      found_counter = true;
      EXPECT_EQ(c.value, 42u);
    }
  }
  for (const auto& gs : snap.gauges) {
    if (gs.name == "obs_test_depth") {
      found_gauge = true;
      EXPECT_DOUBLE_EQ(gs.value, 7.5);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_gauge);
  // Snapshot order is sorted by name — stable for goldens and diffs.
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].name, snap.counters[i].name);
  }

  obs::reset_metrics_for_test();
  EXPECT_EQ(obs::counter("obs_test_events_total").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("obs_test_depth").value(), 0.0);
}

// --- Exporters (golden files) ----------------------------------------------

TEST(ObsExport, ChromeTraceGolden) {
  obs::TraceReport report;
  report.session_duration_ns = 5'000'000;
  obs::ThreadTrace worker;
  worker.thread_index = 0;
  worker.name = "worker-0";
  worker.dropped = 2;
  worker.events.push_back({"scan", "phase", 1'500, 2'000'500, 0});
  report.threads.push_back(std::move(worker));

  std::ostringstream out;
  obs::write_chrome_trace(out, report, "paremsp");
  const std::string golden =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"paremsp\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"worker-0\"}},\n"
      "{\"name\":\"scan\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":1.500,\"dur\":2000.500}\n"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      "\"session_duration_ms\":5,\"dropped_events\":2}}\n";
  EXPECT_EQ(out.str(), golden);
}

TEST(ObsExport, PrometheusTextGolden) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"jobs_total", 42});
  snap.gauges.push_back({"queue_depth", 3.5});
  std::ostringstream out;
  obs::write_prometheus_text(out, snap);
  EXPECT_EQ(out.str(),
            "# TYPE jobs_total counter\n"
            "jobs_total 42\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 3.5\n");
}

TEST(ObsExport, MetricsJsonGolden) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"jobs_total", 42});
  snap.counters.push_back({"unions_total", 7});
  snap.gauges.push_back({"queue_depth", 3.5});
  std::ostringstream out;
  obs::write_metrics_json(out, snap);
  EXPECT_EQ(out.str(),
            "{\"counters\":{\"jobs_total\":42,\"unions_total\":7},"
            "\"gauges\":{\"queue_depth\":3.5}}\n");
}

TEST(ObsExport, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

// --- Counter oracle --------------------------------------------------------

/// scan_unions + merge_unions == provisional_labels - num_components: each
/// successful union joins two distinct provisional-label trees, and a
/// forest of L nodes with C trees has exactly L - C edges.
void expect_union_oracle(const PhaseCounters& c, Label num_components,
                         const std::string& context) {
  ASSERT_GT(c.provisional_labels, 0) << context;
  EXPECT_EQ(c.total_unions(),
            static_cast<std::uint64_t>(c.provisional_labels) -
                static_cast<std::uint64_t>(num_components))
      << context;
}

TEST(ObsCounters, UnionOracleHoldsOnInstrumentedAlgorithms) {
  const BinaryImage image = gen::landcover_like(96, 128, 20260808);
  LabelRequest request;
  request.input = image;

  // Every algorithm that reports provisional labels must satisfy the
  // forest-edge identity; these five are instrumented and must report.
  const std::set<std::string> instrumented = {
      "aremsp", "paremsp", "paremsp2d", "aremsp_rle", "paremsp_rle"};
  std::set<std::string> reported;
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    const LabelResponse response = labeler->run(request);
    const PhaseCounters& c = response.timings.counters;
    if (c.provisional_labels == 0) continue;
    reported.insert(std::string(info.name));
    expect_union_oracle(c, response.num_components, std::string(info.name));
    if (info.name.find("rle") != std::string_view::npos ||
        info.id == Algorithm::ParemspTiled) {
      EXPECT_GT(c.runs_extracted, 0u) << info.name;
    }
    EXPECT_GT(c.tiles, 0u) << info.name;
  }
  for (const std::string& name : instrumented) {
    EXPECT_TRUE(reported.count(name)) << name << " lost its counters";
  }
}

TEST(ObsCounters, UnionOracleHoldsAcrossThreadCounts) {
  const BinaryImage image = gen::texture_like(80, 112, 99);
  LabelRequest request;
  request.input = image;
  for (const Algorithm algorithm :
       {Algorithm::Paremsp, Algorithm::ParemspTiled, Algorithm::ParemspRle}) {
    for (const int threads : {1, 2, 4, 8}) {
      const auto labeler = make_labeler(algorithm, {.threads = threads});
      const LabelResponse response = labeler->run(request);
      expect_union_oracle(response.timings.counters, response.num_components,
                          std::string(algorithm_info(algorithm).name) +
                              " threads=" + std::to_string(threads));
    }
  }
}

TEST(ObsCounters, ShardedRunsFillCountersAndQueueWait) {
  const BinaryImage image = gen::aerial_like(160, 200, 4242);
  LabelingEngine eng({.workers = 3});
  LabelRequest request;
  request.input = image;
  request.shard = ShardOptions{.tile_rows = 64, .tile_cols = 64};
  LabelResponse response = eng.submit(std::move(request)).get();
  expect_union_oracle(response.timings.counters, response.num_components,
                      "sharded");
  EXPECT_GT(response.timings.counters.tiles, 1u);
  EXPECT_GE(response.timings.queue_wait_ms, 0.0);
  EXPECT_GT(response.timings.counters.runs_extracted, 0u);
  EXPECT_GT(response.timings.counters.merge_pairs, 0u);
}

TEST(ObsCounters, PhaseSumStaysWithinTotal) {
  // The four phase timers cover disjoint intervals of the run, so their
  // sum can never meaningfully exceed the end-to-end wall time. (The
  // strict 5% reconcile lives in examples/labeling_service.cpp where a
  // single large request makes the timings statistically stable.)
  const BinaryImage image = gen::landcover_like(128, 128, 7);
  LabelRequest request;
  request.input = image;
  const auto labeler = make_labeler(Algorithm::ParemspTiled);
  const LabelResponse response = labeler->run(request);
  EXPECT_GT(response.timings.phase_sum_ms(), 0.0);
  EXPECT_LE(response.timings.phase_sum_ms(),
            response.timings.total_ms * 1.05 + 0.5);
}

// --- Tracing must never change results -------------------------------------

TEST(ObsTrace, TracedRunsAreBitIdenticalOnEveryAlgorithm) {
  const BinaryImage image = gen::landcover_like(72, 96, 31337);
  LabelRequest request;
  request.input = image;
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    const LabelResponse baseline = labeler->run(request);
    obs::TraceSession session;
    const LabelResponse traced = labeler->run(request);
    const obs::TraceReport report = session.stop();
    EXPECT_EQ(traced.num_components, baseline.num_components) << info.name;
    EXPECT_EQ(traced.labels, baseline.labels) << info.name;
    (void)report;
  }
}

TEST(ObsTrace, TracedShardedRleRunShowsAllFourPhases) {
  const BinaryImage image = gen::landcover_like(128, 192, 555);
  LabelingEngine eng({.workers = 2});
  LabelRequest request;
  request.input = image;
  request.shard = ShardOptions{.tile_rows = 48, .tile_cols = 64};

  obs::TraceSession session;
  LabelResponse response = eng.submit(std::move(request)).get();
  const obs::TraceReport report = session.stop();
  EXPECT_GT(response.num_components, 0);
  // The request shares the rle labelers' phase spans, under one outer
  // span per request.
  EXPECT_EQ(count_events(report, "shard.request"), 1u);
  EXPECT_GT(count_events(report, "rle.scan.tile"), 0u);
  EXPECT_GT(count_events(report, "rle.merge.tile"), 0u);
  EXPECT_GT(count_events(report, "rle.flatten"), 0u);
  EXPECT_GT(count_events(report, "rle.rewrite.tile"), 0u);
  // The engine names each worker's track for the exporter.
  bool worker_track = false;
  for (const obs::ThreadTrace& t : report.threads) {
    if (t.name.rfind("worker-", 0) == 0 && !t.events.empty()) {
      worker_track = true;
    }
  }
  EXPECT_TRUE(worker_track);
}

TEST(ObsTrace, StatsOnlyShardedRequestSkipsTheRewrite) {
  const BinaryImage image = gen::landcover_like(128, 192, 555);
  LabelingEngine eng({.workers = 2});
  LabelRequest request;
  request.input = image;
  request.outputs.stats = true;
  request.shard = ShardOptions{.tile_rows = 48, .tile_cols = 64};
  const LabelResponse full = eng.submit(request).get();

  request.outputs.labels = false;
  obs::TraceSession session;
  const LabelResponse stats_only = eng.submit(request).get();
  const obs::TraceReport report = session.stop();
  EXPECT_TRUE(stats_only.labels.empty());
  EXPECT_EQ(stats_only.num_components, full.num_components);
  ASSERT_TRUE(stats_only.stats.has_value());
  EXPECT_EQ(stats_only.stats->components, full.stats->components);
  EXPECT_EQ(count_events(report, "shard.request"), 1u);
  EXPECT_EQ(count_events(report, "rle.rewrite.tile"), 0u);
}

TEST(ObsTrace, EngineStreamRecordsOneSpanPerOp) {
  constexpr Coord kSlabRows = 8;
  constexpr std::size_t kSlabs = 5;
  const BinaryImage image =
      gen::landcover_like(kSlabRows * static_cast<Coord>(kSlabs), 64, 77);
  LabelingEngine eng({.workers = 2});
  engine::StreamConfig config;
  config.options.cols = image.cols();

  obs::TraceSession session;
  auto stream = eng.open_stream(config);
  std::vector<std::future<stream::SlabResult>> slabs;
  for (std::size_t k = 0; k < kSlabs; ++k) {
    slabs.push_back(stream->push_slab(ConstImageView(image).subview(
        static_cast<Coord>(k) * kSlabRows, 0, kSlabRows, image.cols())));
  }
  for (auto& slab : slabs) (void)slab.get();
  (void)stream->finish().get();
  const obs::TraceReport report = session.stop();
  EXPECT_EQ(count_events(report, "stream.slab"), kSlabs);
  EXPECT_EQ(count_events(report, "stream.finish"), 1u);
}

// --- Engine stats: queue backlog + failed-latency split --------------------

TEST(ObsQueue, HighWaterTracksDeepestBacklog) {
  JobQueue<int> q(8);
  EXPECT_EQ(q.high_water(), 0u);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  ASSERT_TRUE(q.push(3));
  EXPECT_EQ(q.high_water(), 3u);
  (void)q.pop();
  (void)q.pop();
  (void)q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.high_water(), 3u);  // the mark never recedes
  ASSERT_TRUE(q.push_unbounded(4));
  EXPECT_EQ(q.high_water(), 3u);  // depth 1 < mark
}

TEST(ObsQueue, EngineSnapshotExposesQueueFields) {
  LabelingEngine eng({.workers = 2, .queue_capacity = 64});
  std::vector<BinaryImage> images;
  std::vector<std::future<LabelResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    images.push_back(gen::texture_like(48, 48, 100 + i));
  }
  for (const BinaryImage& image : images) {
    futures.push_back(eng.submit({.input = image}));
  }
  for (auto& f : futures) (void)f.get();
  const engine::EngineStatsSnapshot s = eng.stats();
  EXPECT_EQ(s.queue_capacity, 64u);
  EXPECT_EQ(s.queue_depth, 0u);  // drained
  EXPECT_LE(s.queue_high_water, 64u);
  EXPECT_EQ(s.jobs_completed, 8u);
}

TEST(ObsQueue, FailedJobsLatencyIsWindowedSeparately) {
  // The engine's labeler is 8-connectivity-only AREMSP; a per-request
  // 4-connectivity override is rejected on the worker, so the job fails
  // and must land in the FAILED latency window, leaving the ok tail
  // untouched.
  const BinaryImage image = gen::landcover_like(48, 64, 11);
  LabelingEngine eng({.workers = 1, .algorithm = Algorithm::Aremsp});

  LabelRequest ok;
  ok.input = image;
  (void)eng.submit(std::move(ok)).get();

  LabelRequest bad;
  bad.input = image;
  bad.connectivity = Connectivity::Four;
  auto failed = eng.submit(std::move(bad));
  EXPECT_THROW((void)failed.get(), PreconditionError);

  const engine::EngineStatsSnapshot s = eng.stats();
  EXPECT_EQ(s.jobs_completed, 2u);
  EXPECT_EQ(s.jobs_failed, 1u);
  EXPECT_GT(s.latency_mean_ms, 0.0);
  EXPECT_GT(s.latency_failed_mean_ms, 0.0);
  EXPECT_GT(s.latency_failed_max_ms, 0.0);
  EXPECT_GE(s.latency_failed_p99_ms, 0.0);
}

TEST(ObsMetrics, EnginePublishesSnapshotGauges) {
  obs::reset_metrics_for_test();
  const BinaryImage image = gen::landcover_like(40, 56, 3);
  LabelingEngine eng({.workers = 2});
  (void)eng.submit({.input = image}).get();
  (void)eng.submit({.input = image}).get();
  eng.publish_metrics();
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  double completed = -1.0;
  double workers = -1.0;
  for (const auto& g : snap.gauges) {
    if (g.name == "engine_jobs_completed") completed = g.value;
    if (g.name == "engine_workers") workers = g.value;
  }
  EXPECT_DOUBLE_EQ(completed, 2.0);
  EXPECT_DOUBLE_EQ(workers, 2.0);
  // The per-job worker counters ride along.
  std::uint64_t jobs_total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "engine_jobs_total") jobs_total = c.value;
  }
  EXPECT_EQ(jobs_total, 2u);
}

}  // namespace
}  // namespace paremsp
