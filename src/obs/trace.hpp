// Low-overhead wall-clock tracing for the labeling pipelines.
//
// The paper's whole argument is phase economics — where time goes in scan
// vs merge vs flatten vs relabel (Fig. 4/5, Table IV) — so every pipeline
// layer brackets its phases with RAII `Span`s. Spans land in THREAD-LOCAL
// lock-free ring buffers: a recording thread touches only its own ring
// (one bounds check, one slot store, one release-store of the count), so
// tracing never adds a lock, a fence pair, or cross-thread cache traffic
// to the labeling hot path. The collector reads each ring only up to its
// release-published count, which is what makes concurrent record/collect
// race-free (TSan-verified by tests/test_obs.cpp).
//
// Cost model, enforced by the overhead guard in bench/throughput_cca:
//   tracing OFF  one relaxed atomic load per span site (phase/job/tile
//                granularity — never per pixel or per run), measured
//                >= 0.99x of an untraced run;
//   tracing ON   additionally one steady_clock read at span start/end and
//                one ring slot store at end.
//
// Gate: tracing is ON while a TraceSession is alive, or for the whole
// process when the PAREMSP_TRACE environment variable is set non-zero
// (collect() then gathers events without a session object). Rings are
// epoch-reset lazily by their owner threads at the first record of a new
// session, so sessions never write to foreign rings. A full ring DROPS
// further events (counted per thread) instead of overwriting — overwrite
// would let the collector read a slot mid-rewrite.
//
//   obs::TraceSession session;                 // enables recording
//   { obs::Span span("scan", "phase"); ... }   // one event on this thread
//   obs::TraceReport report = session.stop();  // collect all rings
//   obs::write_chrome_trace(out, report);      // Perfetto-loadable JSON
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace paremsp::obs {

/// One completed span, as stored in a thread ring. `name`/`category` must
/// be string literals (or otherwise outlive the session): rings store the
/// pointers, never copies — a span record is two clock reads and ~32
/// bytes, not an allocation.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::int64_t start_ns = 0;  // steady_clock, relative to session start
  std::int64_t dur_ns = 0;
  std::int32_t depth = 0;  // span nesting depth on the recording thread
};

namespace detail {
extern std::atomic<bool> g_enabled;
void record_span(const char* name, const char* category,
                 std::int64_t start_ns, std::int64_t dur_ns,
                 std::int32_t depth) noexcept;
[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] int enter_span() noexcept;  // returns depth, increments
void leave_span() noexcept;
}  // namespace detail

/// True while recording is on (a TraceSession is alive, or PAREMSP_TRACE
/// forced it on). One relaxed load: this is the entire disabled-path cost
/// of every instrumentation site.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// RAII span: records one TraceEvent on the current thread's ring at
/// destruction. When tracing is off at construction the object is inert
/// (a span does not start recording mid-flight if a session begins while
/// it is open — events never straddle the session boundary).
class Span {
 public:
  explicit Span(const char* name, const char* category = "phase") noexcept {
    if (!tracing_enabled()) return;
    name_ = name;
    category_ = category;
    depth_ = detail::enter_span();
    start_ns_ = detail::now_ns();
  }

  ~Span() {
    if (name_ == nullptr) return;
    const std::int64_t end = detail::now_ns();
    detail::leave_span();
    detail::record_span(name_, category_, start_ns_, end - start_ns_, depth_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // null = inert (tracing was off)
  const char* category_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::int32_t depth_ = 0;
};

/// Record a span whose interval the caller measured itself (e.g. the
/// engine's queue-wait, whose start predates the worker thread picking the
/// job up). `start_ns`/`dur_ns` use the same clock as detail::now_ns();
/// no-op when tracing is off.
inline void emit_span(const char* name, const char* category,
                      std::int64_t start_ns, std::int64_t dur_ns) noexcept {
  if (!tracing_enabled()) return;
  detail::record_span(name, category, start_ns, dur_ns, 0);
}

/// Current steady-clock time in the event timebase (for emit_span).
[[nodiscard]] inline std::int64_t trace_now_ns() noexcept {
  return detail::now_ns();
}

/// Label the current thread's track in reports ("worker-3"). Cheap enough
/// to call unconditionally from thread mains; last call wins.
void set_thread_name(std::string name);

/// One thread's collected events.
struct ThreadTrace {
  std::uint64_t thread_index = 0;  // stable registration order (trace tid)
  std::string name;                // set_thread_name, else "thread-<idx>"
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;  // events lost to a full ring this session
};

/// Everything the exporters need: per-thread event lists plus the session
/// window. Timestamps are nanoseconds since session start.
struct TraceReport {
  std::vector<ThreadTrace> threads;
  std::int64_t session_duration_ns = 0;

  [[nodiscard]] std::size_t total_events() const noexcept {
    std::size_t n = 0;
    for (const ThreadTrace& t : threads) n += t.events.size();
    return n;
  }
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const ThreadTrace& t : threads) n += t.dropped;
    return n;
  }
};

/// Collect every ring's current-session events without ending the session
/// (used by PAREMSP_TRACE-forced tracing, where no session object exists).
/// Call only after the traced workload has quiesced: events recorded
/// concurrently with collection may or may not be included.
[[nodiscard]] TraceReport collect();

/// RAII recording window. At most one session may be alive at a time
/// (construction throws PreconditionError otherwise); stop() disables
/// recording and returns the collected report, the destructor just
/// disables. Starting a session resets every ring's event count for the
/// new epoch (lazily, owner-side), so back-to-back sessions don't bleed
/// into each other.
class TraceSession {
 public:
  /// `ring_capacity` sets the per-thread event capacity for rings created
  /// while this session is active (existing rings keep theirs).
  explicit TraceSession(std::size_t ring_capacity = kDefaultRingCapacity);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Disable recording and collect. Idempotent: a second stop() returns an
  /// empty report.
  [[nodiscard]] TraceReport stop();

  static constexpr std::size_t kDefaultRingCapacity = 1 << 15;

 private:
  bool stopped_ = false;
};

}  // namespace paremsp::obs
