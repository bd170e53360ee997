// perfbench — the labeling system's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt] [--trace-dir DIR]
//
// Untraced (--trace 0): set up three times (construct every executor and
// warm it on the workload; median = setup_s), then measure for S seconds:
// the one-shot executors and the engine stream interleaved in rotating
// order per repetition, then open-loop service traffic at the nominal
// rate, then closed-loop service traffic for the highest sustainable
// rate. Prints the end-to-end metrics.
//
// Traced (--trace 1): the same executors untraced, then again inside an
// obs::TraceSession with the benchmark's own spans on, plus the composed
// run pipeline, a core SlabSession pass and a traced service phase.
// Prints the per-layer metrics and writes the spans to --trace-dir.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit code 1 when any output failed verification.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "image/row_bits.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "paths.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt] [--trace-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--corrupt") {
      a.corrupt = true;
    } else if (flag == "--trace-dir") {
      a.trace_dir = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

std::string host_json(const Workload& w, int threads) {
  std::ostringstream out;
  out << "{\"nproc\": " << threads << ", \"simd_detected\": "
      << json_string(paremsp::to_string(paremsp::detected_simd_tier()))
      << ", \"simd_active\": "
      << json_string(paremsp::to_string(paremsp::active_simd_tier()))
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
      << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
      << ", \"image_bytes\": " << w.image_bytes()
      << ", \"oneshot_pixels\": " << w.oneshot_pixels()
      << ", \"stream_shape\": \"" << w.stream.view.rows() << "x"
      << w.stream.view.cols() << "\", \"omp_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0) continue;
    const auto eq = kv.find('=');
    out << (first ? "" : ", ") << json_string(kv.substr(0, eq)) << ": "
        << json_string(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  out << "}}";
  return out.str();
}

/// Construct every executor and run each path once (the warm-up).
std::unique_ptr<Executors> set_up(const Workload& w, int threads,
                                  Checks& checks, SpanRecorder& spans) {
  auto ex = std::make_unique<Executors>(threads);
  // aremsp shares its scratch with paremsp, whose warm-up grows it.
  for (int e = kParemsp; e < kExecutors; ++e) {
    (void)run_executor(*ex, w, e, checks, spans);
  }
  // A closed-loop burst of each request class, enough to reach every
  // service worker's arena.
  const auto burst = static_cast<std::size_t>(2 * ex->service->workers());
  for (const auto& pool : w.service) {
    std::vector<std::future<paremsp::LabelResponse>> futures;
    for (std::size_t i = 0; i < std::min(burst, pool.size()); ++i) {
      futures.push_back(ex->service->submit(pool[i].request()));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      paremsp::LabelResponse r = futures[i].get();
      checks.check(r, pool[i]);
      ex->service->recycle(std::move(r.labels));
    }
  }
  return ex;
}

/// Executor repetitions in rotating order until `budget_s` has passed
/// (at least `min_reps`). samples[e] holds one ExecSample per repetition.
std::vector<std::vector<ExecSample>> measure_executors(
    Executors& ex, const Workload& w, double budget_s, int min_reps,
    Checks& checks, SpanRecorder& spans) {
  std::vector<std::vector<ExecSample>> samples(kExecutors);
  const auto t0 = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= min_reps && ms_between(t0, Clock::now()) >= budget_s * 1e3) {
      break;
    }
    for (int k = 0; k < kExecutors; ++k) {
      const int e = (rep + k) % kExecutors;
      samples[static_cast<std::size_t>(e)].push_back(
          run_executor(ex, w, e, checks, spans));
    }
  }
  return samples;
}

std::vector<double> column(const std::vector<ExecSample>& samples,
                           double (*get)(const ExecSample&)) {
  std::vector<double> out;
  for (const ExecSample& s : samples) out.push_back(get(s));
  return out;
}

/// Latency percentile for reporting: a failed request (+inf) that lands
/// on the percentile reads as 10 s, far beyond any limit.
double reported(double ms) { return std::isfinite(ms) ? ms : 10000.0; }

/// Sub-windows of the nominal phase; latency percentiles are the median
/// over them.
constexpr int kNominalWindows = 4;

/// Sub-windows of the capacity phase; the highest sustainable rate is the
/// median of their throughputs.
constexpr int kCapacityWindows = 5;

int run(const Args& args) {
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (paremsp::obs::tracing_enabled()) {
    std::cerr << "perfbench: obs tracing is forced on (PAREMSP_TRACE); "
                 "unset it for untraced measurement\n";
    return 2;
  }

  const auto t_inputs = Clock::now();
  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  std::cout << "{\"host\": " << host_json(w, threads)
            << ", \"workload\": " << json_string(w.name)
            << ", \"seed\": " << args.seed
            << ", \"inputs_s\": " << ms_between(t_inputs, Clock::now()) / 1e3
            << ", \"nominal_rate\": " << w.nominal_rate
            << ", \"limit_ms\": " << w.limit_ms << "}" << std::endl;

  Checks checks;
  SpanRecorder spans;  // stays disabled until the traced pass
  MetricTable metrics;
  // Requests shed at the nominal rate count as attempted and failed;
  // a request shed in the closed loop only goes uncounted as throughput.
  std::uint64_t shed_at_nominal = 0;
  const auto attempted = [&] {
    return checks.attempted.load() + shed_at_nominal;
  };
  const auto failed = [&] {
    return checks.mismatched.load() + checks.errors.load() + shed_at_nominal;
  };
  const double S = args.seconds;

  std::vector<double> setup_s;
  std::unique_ptr<Executors> ex;
  for (int round = 0; round < (args.trace ? 1 : 3); ++round) {
    ex.reset();
    const auto t0 = Clock::now();
    ex = set_up(w, threads, checks, spans);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  if (args.corrupt) checks.corrupt_next = true;

  if (!args.trace) {
    // ok_frac counts the timed phase's outputs only, not set-up's warm-up.
    const std::uint64_t setup_attempted = attempted();
    const std::uint64_t setup_failed = failed();
    reset_peak_rss();
    const auto samples =
        measure_executors(*ex, w, 0.6 * S, 3, checks, spans);
    const ServiceRun nominal = drive_open_loop(
        *ex->service, w, w.nominal_rate, 0.2 * S, args.seed, checks, spans);
    shed_at_nominal = nominal.shed;
    // The highest rate sustained without a growing backlog: the service's
    // throughput with twice as many requests in flight as workers, so no
    // worker waits for a client and the queue stays bounded.
    const CapacityRun capacity =
        drive_closed_loop(*ex->service, w, 2 * ex->service->workers(),
                          0.2 * S, args.seed + 1, checks);
    const double peak = peak_rss_mb();

    metrics.add("setup_s", "s", setup_s);
    metrics.add_value(
        "ok_frac", "ratio",
        1.0 - static_cast<double>(failed() - setup_failed) /
                  static_cast<double>(attempted() - setup_attempted));
    metrics.add_value("peak_rss_mb", "MB", peak);
    for (const int e : {kAremsp, kParemsp, kParemsp2d, kSharded}) {
      const std::string name = kExecNames[static_cast<std::size_t>(e)];
      metrics.add(name + ".mpx_per_s", "Mpx/s",
                  column(samples[static_cast<std::size_t>(e)],
                         [](const ExecSample& s) { return s.mpx_per_s(); }));
    }
    metrics.add_value("svc.p99_ms", "ms",
                      reported(nominal.percentile_ms(99.0, kNominalWindows)));
    std::cout << "service windows p50/p99 (ms):";
    const auto p50s = nominal.window_percentiles(50.0, kNominalWindows);
    const auto p99s = nominal.window_percentiles(99.0, kNominalWindows);
    for (int k = 0; k < kNominalWindows; ++k) {
      std::cout << " " << p50s[static_cast<std::size_t>(k)] << "/"
                << p99s[static_cast<std::size_t>(k)];
    }
    std::cout << "\n";
    const std::vector<double> rates =
        capacity.window_rates(kCapacityWindows);
    metrics.add("svc.max_rate_img_s", "img/s", rates);
    metrics.add("stream.mpx_per_s", "Mpx/s",
                column(samples[kStream],
                       [](const ExecSample& s) { return s.mpx_per_s(); }));
    std::cout << "service: " << nominal.requests.size()
              << " requests at the nominal rate in " << kNominalWindows
              << " windows (each window's p99 has "
              << nominal.requests.size() / kNominalWindows / 100
              << " beyond it), " << nominal.shed << " shed; capacity "
              << capacity.done_ms.size() << " requests, " << capacity.shed
              << " shed, p99 " << percentile(capacity.latency_ms, 99.0)
              << " ms, windows (img/s):";
    for (const double r : rates) std::cout << " " << r;
    std::cout << "\n";
  } else {
    const auto untraced =
        measure_executors(*ex, w, 0.3 * S, 2, checks, spans);
    const int reps = static_cast<int>(untraced[0].size());

    paremsp::obs::TraceSession session(1 << 17);
    spans.enable();
    const auto traced = measure_executors(*ex, w, 0.0, reps, checks, spans);
    std::vector<PipelineSample> pipeline;
    const auto tp = Clock::now();
    while (pipeline.size() < 2 ||
           ms_between(tp, Clock::now()) < 0.1 * S * 1e3) {
      pipeline.push_back(run_pipeline(w, checks, spans));
    }
    std::vector<CoreStreamSample> core_stream;
    const auto tc = Clock::now();
    while (core_stream.size() < 3 ||
           ms_between(tc, Clock::now()) < 0.1 * S * 1e3) {
      core_stream.push_back(run_core_stream(w, checks, spans));
    }
    const auto before = ex->service->stats();
    const ServiceRun svc = drive_open_loop(*ex->service, w, w.nominal_rate,
                                           0.25 * S, args.seed, checks, spans);
    const auto after = ex->service->stats();
    shed_at_nominal = svc.shed;
    const paremsp::obs::TraceReport report = session.stop();

    // --- layers of the composed run pipeline -------------------------------
    const auto pipe = [&](double (*get)(const PipelineSample&)) {
      std::vector<double> v;
      for (const PipelineSample& s : pipeline) v.push_back(get(s));
      return v;
    };
    metrics.add("image.extract_ms", "ms",
                pipe([](const PipelineSample& s) { return s.extract_ms; }));
    metrics.add("core.scan_ms", "ms",
                pipe([](const PipelineSample& s) { return s.scan_ms; }));
    metrics.add("core.resolve_ms", "ms",
                pipe([](const PipelineSample& s) { return s.resolve_ms; }));
    metrics.add("core.serial_share", "ratio",
                pipe([](const PipelineSample& s) {
                  return s.resolve_ms / s.labeling_ms();
                }));
    metrics.add("core.rewrite_ms", "ms",
                pipe([](const PipelineSample& s) { return s.rewrite_ms; }));
    metrics.add("core.rewrite_gbps", "GB/s",
                pipe([](const PipelineSample& s) {
                  return static_cast<double>(s.rewrite_bytes) /
                         (s.rewrite_ms * 1e6);
                }));
    metrics.add("unionfind.seam_ms", "ms",
                pipe([](const PipelineSample& s) { return s.seam_ms; }));

    // --- executor phase splits (untraced) -----------------------------------
    const auto median_ms = [&](int e) {
      return summarize(column(untraced[static_cast<std::size_t>(e)],
                              [](const ExecSample& s) { return s.pass_ms(); }))
          .median;
    };
    for (const int e : {kParemsp, kParemsp2d, kSharded}) {
      const std::string name = kExecNames[static_cast<std::size_t>(e)];
      const auto& rows = untraced[static_cast<std::size_t>(e)];
      metrics.add(name + ".scan_ms", "ms",
                  column(rows, [](const ExecSample& s) {
                    return s.phases.scan_ms;
                  }));
      metrics.add(name + ".merge_ms", "ms",
                  column(rows, [](const ExecSample& s) {
                    return s.phases.merge_ms;
                  }));
      metrics.add(name + ".flatten_ms", "ms",
                  column(rows, [](const ExecSample& s) {
                    return s.phases.flatten_ms;
                  }));
      metrics.add(name + ".relabel_ms", "ms",
                  column(rows, [](const ExecSample& s) {
                    return s.phases.relabel_ms;
                  }));
    }
    metrics.add("sharded.queue_wait_ms", "ms",
                column(untraced[kSharded], [](const ExecSample& s) {
                  return s.phases.queue_wait_ms;
                }));
    for (const int e : {kParemsp, kParemsp2d, kSharded}) {
      metrics.add_value(
          std::string(kExecNames[static_cast<std::size_t>(e)]) +
              ".speedup_vs_aremsp",
          "x", median_ms(kAremsp) / median_ms(e));
    }

    // --- work counts (exact) -------------------------------------------------
    const PipelineSample& c = pipeline.front();
    metrics.add_value("count.runs", "count", static_cast<double>(c.runs));
    metrics.add_value("count.provisional_labels", "count",
                      static_cast<double>(c.provisional_labels));
    metrics.add_value("count.scan_unions", "count",
                      static_cast<double>(c.scan_unions));
    metrics.add_value("count.merge_pairs", "count",
                      static_cast<double>(c.merge_pairs));
    metrics.add_value("count.merge_unions", "count",
                      static_cast<double>(c.merge_unions));
    metrics.add_value("count.components", "count",
                      static_cast<double>(c.components));
    metrics.add_value("count.tiles", "count", static_cast<double>(c.tiles));

    // --- engine under open-loop traffic --------------------------------------
    metrics.add_value("svc.p50_ms", "ms",
                      reported(svc.percentile_ms(50.0, kNominalWindows)));
    metrics.add_value("engine.queue_wait_ms.p50", "ms",
                      percentile(svc.queue_wait_ms, 50.0));
    metrics.add_value("engine.queue_wait_ms.p99", "ms",
                      percentile(svc.queue_wait_ms, 99.0));
    for (int k = 0; k < kClasses; ++k) {
      metrics.add_value(std::string("engine.service_ms.") +
                            kClassNames[static_cast<std::size_t>(k)] + ".p50",
                        "ms",
                        percentile(svc.service_ms[static_cast<std::size_t>(k)],
                                   50.0));
    }
    metrics.add_value("engine.submit_block_ms.max", "ms",
                      svc.submit_block_max_ms);
    metrics.add_value("engine.stats_call_us.p50", "us",
                      percentile(svc.stats_call_us, 50.0));
    metrics.add_value(
        "engine.plane_reuse_ratio", "ratio",
        static_cast<double>(after.plane_reuses - before.plane_reuses) /
            static_cast<double>(std::max<std::uint64_t>(svc.completed_ok, 1)));
    metrics.add_value(
        "engine.scratch_grow_count", "count",
        static_cast<double>(after.scratch_grow_count -
                            before.scratch_grow_count));
    metrics.add_value("engine.queue_high_water", "count",
                      static_cast<double>(after.queue_high_water));
    metrics.add_value("engine.jobs_shed", "count",
                      static_cast<double>(after.jobs_shed - before.jobs_shed));
    metrics.add_value("gen.late_ms.p99", "ms", percentile(svc.late_ms, 99.0));
    metrics.add_value("gen.late_ms.max", "ms",
                      svc.late_ms.empty()
                          ? 0.0
                          : *std::max_element(svc.late_ms.begin(),
                                              svc.late_ms.end()));

    // --- stream ------------------------------------------------------------
    std::vector<double> push_ms;
    std::vector<double> finish_ms;
    std::vector<double> core_wall;
    std::size_t seam_max = 0;
    std::size_t working = 0;
    for (const CoreStreamSample& s : core_stream) {
      push_ms.insert(push_ms.end(), s.push_ms.begin(), s.push_ms.end());
      finish_ms.push_back(s.finish_ms);
      core_wall.push_back(s.wall_ms);
      seam_max = std::max(seam_max, s.seam_state_bytes_max);
      working = std::max(working, s.slab_working_bytes);
    }
    metrics.add_value("stream.push_slab_ms.p50", "ms",
                      percentile(push_ms, 50.0));
    metrics.add_value("stream.push_slab_ms.p99", "ms",
                      percentile(push_ms, 99.0));
    metrics.add("stream.finish_ms", "ms", finish_ms);
    metrics.add_value("stream.engine_over_core", "x",
                      median_ms(kStream) / summarize(core_wall).median);
    metrics.add("stream.window_block_ms", "ms",
                column(untraced[kStream], [](const ExecSample& s) {
                  return s.window_block_ms / static_cast<double>(s.passes);
                }));
    metrics.add_value("stream.seam_state_bytes.max", "bytes",
                      static_cast<double>(seam_max));
    metrics.add_value("stream.slab_working_bytes", "bytes",
                      static_cast<double>(working));

    // --- tracing overhead: the same executor reps, traced vs untraced -------
    double untraced_ms = 0.0;
    double traced_ms = 0.0;
    for (int e = 0; e < kExecutors; ++e) {
      untraced_ms += median_ms(e);
      traced_ms += summarize(column(traced[static_cast<std::size_t>(e)],
                                    [](const ExecSample& s) {
                                      return s.pass_ms();
                                    }))
                       .median;
    }
    metrics.add_value("trace.overhead_pct", "%",
                      (traced_ms / untraced_ms - 1.0) * 100.0);

    std::filesystem::create_directories(args.trace_dir);
    const std::string stem = args.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    spans.write_json(stem + ".spans.json");
    std::ofstream chrome(stem + ".obs.json");
    paremsp::obs::write_chrome_trace(chrome, report, "perfbench");
    std::cout << "trace: " << spans.size() << " benchmark spans, "
              << report.total_events() << " library events ("
              << report.total_dropped() << " dropped) -> " << stem
              << ".{spans,obs}.json\n";
  }

  const bool correct =
      checks.mismatched.load() == 0 && checks.errors.load() == 0;
  std::cout << "setup rounds (s):";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\nverified " << checks.attempted.load() << " outputs, "
            << checks.mismatched.load() << " mismatched, "
            << checks.errors.load() << " errors\n";
  metrics.print(std::cout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted()
            << ", \"failed\": " << failed()
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
