#include "paths.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include "core/qos.hpp"
#include "core/registry.hpp"
#include "core/tiled_phases.hpp"
#include "engine/stream_session.hpp"
#include "stream/slab_session.hpp"
#include "unionfind/rem.hpp"

namespace perfbench {

using paremsp::Coord;
using paremsp::Label;

namespace {

constexpr Coord kTile = 512;  // sharded and composed-pipeline tile side
constexpr std::size_t kStreamWindow = 4;
constexpr double kMinStreamRepMs = 100.0;
constexpr int kWaiters = 16;  // threads waiting on service futures

/// The integer cutoff of a request threshold (pixel > cutoff), -1 = binary.
int cutoff_of(const Input& in) {
  return in.threshold ? static_cast<int>(std::floor(*in.threshold * 255.0))
                      : -1;
}

void add_phases(paremsp::PhaseTimings& sum, const paremsp::PhaseTimings& t) {
  sum.scan_ms += t.scan_ms;
  sum.merge_ms += t.merge_ms;
  sum.flatten_ms += t.flatten_ms;
  sum.relabel_ms += t.relabel_ms;
  sum.total_ms += t.total_ms;
  sum.queue_wait_ms += t.queue_wait_ms;
}

/// A service request class drawn by the workload's class shares.
int draw_class(const Workload& w, Rng& rng) {
  const double u = rng.uniform();
  int cls = 0;
  double acc = w.class_share[0];
  while (cls + 1 < kClasses && u >= acc) acc += w.class_share[++cls];
  return cls;
}

/// Every service request carries the workload's latency limit as its
/// deadline.
paremsp::Deadline limit_deadline(const Workload& w) {
  return std::chrono::duration_cast<paremsp::Deadline>(
      std::chrono::duration<double, std::milli>(w.limit_ms));
}

paremsp::stream::StreamOptions stream_options(const Input& in) {
  paremsp::stream::StreamOptions options;
  options.cols = in.view.cols();
  options.threshold = in.threshold;
  options.labels = false;  // a measuring stream: count and stats only
  options.stats = true;
  return options;
}

}  // namespace

bool Checks::check(paremsp::LabelResponse& response, const Input& in) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  if (corrupt_next.exchange(false) && response.labels.size() > 0) {
    response.labels.row(0)[0] += 1;
  }
  bool ok = response.num_components == in.ref.components &&
            hash_labels(response.labels) == in.ref.hash;
  if (ok && in.stats) {
    ok = response.stats.has_value() && in.ref.stats.has_value() &&
         response.stats->components == in.ref.stats->components;
  }
  if (!ok) mismatched.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

bool Checks::check(const paremsp::stream::StreamResult& result,
                   const Input& in) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  bool ok = result.num_components == in.ref.components &&
            result.stats.has_value() && in.ref.stats.has_value() &&
            result.stats->components == in.ref.stats->components;
  if (!ok) mismatched.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

Executors::Executors(int threads) {
  paremsp::LabelerOptions options;
  options.threads = threads;
  labelers[kAremsp] = paremsp::make_labeler(paremsp::Algorithm::Aremsp);
  labelers[kParemsp] =
      paremsp::make_labeler(paremsp::Algorithm::Paremsp, options);
  labelers[kParemsp2d] =
      paremsp::make_labeler(paremsp::Algorithm::ParemspTiled, options);
  paremsp::engine::EngineConfig config;
  config.workers = threads;
  engine = std::make_unique<paremsp::engine::LabelingEngine>(config);
  service = std::make_unique<paremsp::engine::LabelingEngine>(
      paremsp::engine::EngineConfig{});
}

ExecSample run_executor(Executors& ex, const Workload& w, int exec,
                        Checks& checks, SpanRecorder& spans) {
  ExecSample sample;
  if (exec == kStream) {
    const Input& in = w.stream;
    paremsp::engine::StreamConfig config;
    config.options = stream_options(in);
    config.window = kStreamWindow;
    const Coord rows = in.view.rows();
    // Sessions back to back until the repetition has lasted
    // kMinStreamRepMs: a short stream timed once is mostly scheduling
    // noise.
    sample.passes = 0;
    while (sample.ms < kMinStreamRepMs) {
      const ScopedSpan span(spans, "exec.stream", sample.passes++);
      const auto t0 = Clock::now();
      sample.pixels += in.view.size();
      try {
        auto session = ex.engine->open_stream(config);
        std::vector<std::future<paremsp::stream::SlabResult>> slabs;
        for (Coord r = 0; r < rows; r += w.slab_rows) {
          const Coord h = std::min(w.slab_rows, rows - r);
          const auto tp = Clock::now();
          slabs.push_back(
              session->push_slab(in.view.subview(r, 0, h, in.view.cols())));
          sample.window_block_ms += ms_between(tp, Clock::now());
        }
        auto finished = session->finish();
        for (auto& slab : slabs) slab.get();
        const paremsp::stream::StreamResult result = finished.get();
        sample.ms += ms_between(t0, Clock::now());
        checks.check(result, in);
      } catch (const std::exception&) {
        sample.ms += ms_between(t0, Clock::now());
        checks.attempted.fetch_add(1, std::memory_order_relaxed);
        checks.errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    return sample;
  }

  for (std::size_t i = 0; i < w.oneshot.size(); ++i) {
    const Input& in = w.oneshot[i];
    paremsp::LabelRequest request = in.request();
    constexpr std::array<const char*, kExecutors> kSpanNames = {
        "exec.aremsp", "exec.paremsp", "exec.paremsp2d", "exec.sharded",
        "exec.stream"};
    const ScopedSpan span(spans, kSpanNames[static_cast<std::size_t>(exec)],
                          static_cast<std::int64_t>(i));
    try {
      paremsp::LabelResponse response;
      const auto t0 = Clock::now();
      if (exec == kSharded) {
        request.shard =
            paremsp::ShardOptions{kTile, kTile, paremsp::ShardScan::Runs};
        response = ex.engine->submit(request).get();
      } else {
        response = ex.labelers[static_cast<std::size_t>(exec)]->run(
            request, ex.scratch);
      }
      sample.ms += ms_between(t0, Clock::now());
      add_phases(sample.phases, response.timings);
      checks.check(response, in);
      if (exec == kSharded) {
        ex.engine->recycle(std::move(response.labels));
      } else {
        ex.scratch.recycle_plane(std::move(response.labels));
      }
    } catch (const std::exception&) {
      checks.attempted.fetch_add(1, std::memory_order_relaxed);
      checks.errors.fetch_add(1, std::memory_order_relaxed);
    }
    sample.pixels += in.view.size();
  }
  return sample;
}

std::vector<double> ServiceRun::window_percentiles(double p,
                                                   int windows) const {
  const double window_ms = seconds * 1000.0 / windows;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(windows));
  for (const Request& r : requests) {
    const auto k =
        std::min(windows - 1, static_cast<int>(r.due_ms / window_ms));
    latencies[static_cast<std::size_t>(k)].push_back(
        r.ok ? r.ready_ms - r.due_ms
             : std::numeric_limits<double>::infinity());
  }
  std::vector<double> out;
  for (const auto& window : latencies) out.push_back(percentile(window, p));
  return out;
}

ServiceRun drive_open_loop(paremsp::engine::LabelingEngine& engine,
                           const Workload& w, double rate, double seconds,
                           std::uint64_t seed, Checks& checks,
                           SpanRecorder& spans) {
  struct Planned {
    double due_ms;
    int cls;
    const Input* input;
  };
  Rng rng(seed);
  std::vector<Planned> plan;
  for (double t = 0.0;;) {
    t += -std::log1p(-rng.uniform()) / rate * 1000.0;
    if (t >= seconds * 1000.0) break;
    const int cls = draw_class(w, rng);
    const auto& pool = w.service[static_cast<std::size_t>(cls)];
    plan.push_back({t, cls, &pool[rng.below(pool.size())]});
  }

  struct Pending {
    std::future<paremsp::LabelResponse> future;
    const Planned* planned = nullptr;
  };

  ServiceRun out;
  out.rate = rate;
  out.seconds = seconds;
  std::mutex queue_mutex;  // guards pending and closed
  std::condition_variable queue_cv;
  std::deque<Pending> pending;
  bool closed = false;
  std::mutex result_mutex;  // guards out's vectors and counters
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);

  const auto waiter = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(queue_mutex);
        queue_cv.wait(lock, [&] { return closed || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      p.future.wait();
      ServiceRun::Request record{p.planned->due_ms,
                                 ms_between(t0, Clock::now()), false};
      try {
        paremsp::LabelResponse response = p.future.get();
        const double service = response.timings.total_ms;
        record.ok = checks.check(response, *p.planned->input);
        engine.recycle(std::move(response.labels));
        std::lock_guard lock(result_mutex);
        out.requests.push_back(record);
        if (record.ok) {
          ++out.completed_ok;
          out.queue_wait_ms.push_back(record.ready_ms - record.due_ms -
                                      service);
          out.service_ms[static_cast<std::size_t>(p.planned->cls)].push_back(
              service);
        }
      } catch (const paremsp::DeadlineExceededError&) {
        std::lock_guard lock(result_mutex);
        out.requests.push_back(record);
        ++out.shed;
      } catch (const std::exception&) {
        checks.attempted.fetch_add(1, std::memory_order_relaxed);
        checks.errors.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard lock(result_mutex);
        out.requests.push_back(record);
      }
    }
  };

  // Joins the waiters on every exit path, after closing their queue.
  struct WaiterPool {
    std::vector<std::thread> threads;
    std::function<void()> close;
    ~WaiterPool() {
      close();
      for (auto& t : threads) t.join();
    }
  } pool;
  pool.close = [&] {
    {
      std::lock_guard lock(queue_mutex);
      closed = true;
    }
    queue_cv.notify_all();
  };
  for (int i = 0; i < kWaiters; ++i) pool.threads.emplace_back(waiter);

  const auto deadline = limit_deadline(w);
  auto next_scrape = t0;
  std::int64_t request_id = 0;
  for (const Planned& p : plan) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  p.due_ms));
    while (next_scrape <= due) {
      std::this_thread::sleep_until(next_scrape);
      const ScopedSpan span(spans, "engine.stats", request_id);
      const auto ts = Clock::now();
      (void)engine.stats();
      out.stats_call_us.push_back(ms_between(ts, Clock::now()) * 1e3);
      next_scrape += std::chrono::milliseconds(100);
    }
    std::this_thread::sleep_until(due);
    const ScopedSpan span(spans, "engine.submit", request_id++);
    const auto ts = Clock::now();
    out.late_ms.push_back(ms_between(due, ts));
    paremsp::LabelRequest request = p.input->request();
    request.deadline = deadline;
    Pending entry{engine.submit(request), &p};
    out.submit_block_max_ms =
        std::max(out.submit_block_max_ms, ms_between(ts, Clock::now()));
    {
      std::lock_guard lock(queue_mutex);
      pending.push_back(std::move(entry));
    }
    queue_cv.notify_one();
  }
  pool.close();
  for (auto& t : pool.threads) t.join();
  pool.threads.clear();
  return out;
}

std::vector<double> CapacityRun::window_rates(int windows) const {
  const double phase_ms = seconds * 1000.0;
  const double window_ms = phase_ms / windows;
  std::vector<double> rates(static_cast<std::size_t>(windows), 0.0);
  for (const double t : done_ms) {
    if (t >= phase_ms) continue;  // finished after the phase ended
    rates[static_cast<std::size_t>(t / window_ms)] += 1000.0 / window_ms;
  }
  return rates;
}

CapacityRun drive_closed_loop(paremsp::engine::LabelingEngine& engine,
                              const Workload& w, int clients, double seconds,
                              std::uint64_t seed, Checks& checks) {
  CapacityRun out;
  out.seconds = seconds;
  std::mutex result_mutex;  // guards out
  const auto deadline = limit_deadline(w);
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));

  const auto client = [&](std::uint64_t client_seed) {
    Rng rng(client_seed);
    std::vector<double> done_ms;
    std::vector<double> latency_ms;
    std::uint64_t shed = 0;
    while (Clock::now() < end) {
      const auto& pool = w.service[static_cast<std::size_t>(draw_class(w, rng))];
      const Input& in = pool[rng.below(pool.size())];
      paremsp::LabelRequest request = in.request();
      request.deadline = deadline;
      const auto ts = Clock::now();
      try {
        paremsp::LabelResponse response = engine.submit(request).get();
        const auto ready = Clock::now();
        if (checks.check(response, in)) {
          done_ms.push_back(ms_between(t0, ready));
          latency_ms.push_back(ms_between(ts, ready));
        }
        engine.recycle(std::move(response.labels));
      } catch (const paremsp::DeadlineExceededError&) {
        ++shed;
      } catch (const std::exception&) {
        checks.attempted.fetch_add(1, std::memory_order_relaxed);
        checks.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::lock_guard lock(result_mutex);
    out.done_ms.insert(out.done_ms.end(), done_ms.begin(), done_ms.end());
    out.latency_ms.insert(out.latency_ms.end(), latency_ms.begin(),
                          latency_ms.end());
    out.shed += shed;
  };

  // Clients stop on their own once the phase ends; join them on every
  // exit path.
  struct Clients {
    std::vector<std::thread> threads;
    ~Clients() {
      for (auto& t : threads) t.join();
    }
  } pool;
  for (int i = 0; i < clients; ++i) {
    pool.threads.emplace_back(client, seed + static_cast<std::uint64_t>(i));
  }
  for (auto& t : pool.threads) t.join();
  pool.threads.clear();
  return out;
}

PipelineSample run_pipeline(const Workload& w, Checks& checks,
                            SpanRecorder& spans) {
  PipelineSample s;
  for (std::size_t i = 0; i < w.oneshot.size(); ++i) {
    const Input& in = w.oneshot[i];
    const auto request = static_cast<std::int64_t>(i);
    const int cutoff = cutoff_of(in);
    const paremsp::ConstImageView view = in.view;
    std::vector<paremsp::TileSpec> tiles =
        paremsp::make_tile_grid(view.rows(), view.cols(), kTile, kTile);
    std::vector<Label> parents(static_cast<std::size_t>(view.size()) + 1);
    std::vector<paremsp::RunBuffer> runs(tiles.size());
    paremsp::LabelImage out(view.rows(), view.cols());

    const ScopedSpan root(spans, "pipeline", request);
    auto t = Clock::now();
    const auto lap = [&t] {
      const auto now = Clock::now();
      const double ms = ms_between(t, now);
      t = now;
      return ms;
    };
    {
      const ScopedSpan span(spans, "image.extract", request, root.id());
      for (std::size_t k = 0; k < tiles.size(); ++k) {
        const paremsp::TileSpec& tile = tiles[k];
        runs[k].extract(view, tile.row_begin, tile.row_end, tile.col_begin,
                        tile.col_end, cutoff);
        s.runs += runs[k].size();
      }
    }
    s.extract_ms += lap();
    {
      const ScopedSpan span(spans, "core.scan", request, root.id());
      for (std::size_t k = 0; k < tiles.size(); ++k) {
        tiles[k].used =
            paremsp::scan_tile(view, parents, tiles[k], runs[k],
                               paremsp::Connectivity::Eight, &s.scan_unions,
                               cutoff);
        s.provisional_labels += static_cast<std::uint64_t>(tiles[k].used);
      }
    }
    s.scan_ms += lap();
    {
      const ScopedSpan span(spans, "unionfind.seam", request, root.id());
      const paremsp::TileGridShape grid = paremsp::tile_grid_shape(tiles);
      for (std::size_t k = 0; k < tiles.size(); ++k) {
        paremsp::merge_run_seams(tiles, runs, k, grid,
                                 paremsp::Connectivity::Eight,
                                 [&](Label x, Label y) {
                                   ++s.merge_pairs;
                                   paremsp::uf::rem_unite(parents.data(), x,
                                                          y, &s.merge_unions);
                                 });
      }
    }
    s.seam_ms += lap();
    Label components = 0;
    {
      const ScopedSpan span(spans, "core.resolve", request, root.id());
      Label used = 0;
      for (const auto& tile : tiles) used += tile.used;
      std::vector<Label> remap(static_cast<std::size_t>(used) + 1);
      components = paremsp::resolve_final_run_labels(
          parents, tiles, runs, paremsp::Connectivity::Eight, view.rows(),
          remap);
    }
    s.resolve_ms += lap();
    {
      const ScopedSpan span(spans, "core.rewrite", request, root.id());
      for (std::size_t k = 0; k < tiles.size(); ++k) {
        paremsp::rewrite_run_labels(runs[k], parents, tiles[k], out);
      }
    }
    s.rewrite_ms += lap();
    s.rewrite_bytes += view.size() * static_cast<std::int64_t>(sizeof(Label));
    s.components += static_cast<std::uint64_t>(components);
    s.tiles += tiles.size();

    paremsp::LabelResponse response;
    response.labels = std::move(out);
    response.num_components = components;
    Input labels_only;  // the pipeline computes no stats
    labels_only.ref.hash = in.ref.hash;
    labels_only.ref.components = in.ref.components;
    checks.check(response, labels_only);
  }
  return s;
}

CoreStreamSample run_core_stream(const Workload& w, Checks& checks,
                                 SpanRecorder& spans) {
  CoreStreamSample s;
  const Input& in = w.stream;
  const ScopedSpan root(spans, "stream.core", 0);
  const auto t0 = Clock::now();
  paremsp::stream::SlabSession session(stream_options(in));
  const Coord rows = in.view.rows();
  std::int64_t slab = 0;
  for (Coord r = 0; r < rows; r += w.slab_rows) {
    const Coord h = std::min(w.slab_rows, rows - r);
    const ScopedSpan span(spans, "stream.push_slab", slab++, root.id());
    const auto tp = Clock::now();
    (void)session.push_slab(in.view.subview(r, 0, h, in.view.cols()));
    s.push_ms.push_back(ms_between(tp, Clock::now()));
    s.seam_state_bytes_max =
        std::max(s.seam_state_bytes_max, session.seam_state_bytes());
  }
  s.slab_working_bytes = session.slab_working_bytes();
  const auto tf = Clock::now();
  paremsp::stream::StreamResult result;
  {
    const ScopedSpan span(spans, "stream.finish", 0, root.id());
    result = session.finish();
  }
  s.finish_ms = ms_between(tf, Clock::now());
  s.wall_ms = ms_between(t0, Clock::now());
  checks.check(result, in);
  return s;
}

}  // namespace perfbench
