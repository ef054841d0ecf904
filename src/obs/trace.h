// RAII span tracing with Chrome-trace export.
//
// A Span marks a named region of a solve (one solver stage, one sweep point,
// one simulation run). Spans are declared through CSQ_OBS_SPAN, which takes
// a span row of the name catalog (obs/catalog.h), and record nothing unless
// tracing was switched on at runtime:
//
//   obs::set_tracing(true);
//   { CSQ_OBS_SPAN(kQbdSolveLogred); ...stage... }      // one complete event
//   std::string json = obs::chrome_trace_json();        // load in chrome://tracing
//
// Cost model: with tracing off (the default) a span is one relaxed atomic
// load; with -DCSQ_OBS=OFF the macro vanishes entirely. With tracing on,
// the closing brace appends one event to a global mutex-protected buffer —
// spans are stage-granular, so the lock is uncontended in practice.
//
// Timestamps come from csq::timebase::now_ns() (steady_clock + virtual
// offset), so traces are deadline-consistent: a `burn` fault that trips a
// budget also lengthens the enclosing span, and tests can script exact
// durations by advancing the virtual clock.
//
// Thread attribution: each recording thread gets a small sequential tid (in
// first-recording order) and per-thread nesting depth, both carried on the
// event, so the Chrome view groups spans into per-thread lanes.
//
// The buffer holds at most kMaxTraceEvents events; beyond that new events
// are dropped and counted (trace_dropped()) rather than growing without
// bound inside a long sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/catalog.h"

namespace csq::obs {

inline constexpr std::size_t kMaxTraceEvents = 1u << 20;

struct TraceEvent {
  std::string name;
  std::int64_t start_ns = 0;  // timebase::now_ns() at span open
  std::int64_t dur_ns = 0;
  int tid = 0;    // small sequential id, assigned at a thread's first record
  int depth = 0;  // nesting depth within the thread when the span opened
};

// Runtime switch; off by default. Spans opened while tracing is off record
// nothing even if it is switched on before they close.
void set_tracing(bool on);
[[nodiscard]] bool tracing_enabled();

// Completed events so far, sorted by (start_ns, depth). Snapshot copy.
[[nodiscard]] std::vector<TraceEvent> trace_events();

// Events discarded after the buffer filled.
[[nodiscard]] std::size_t trace_dropped();

// Drop all buffered events and the dropped count (test isolation).
void clear_trace();

// Chrome trace-event JSON ({"traceEvents":[...]}): complete ("ph":"X")
// events with microsecond ts/dur normalized to the earliest span. Load via
// chrome://tracing or https://ui.perfetto.dev.
[[nodiscard]] std::string chrome_trace_json();

// Prefer CSQ_OBS_SPAN over declaring Span directly: the macro compiles out
// with -DCSQ_OBS=OFF and checks the name against the catalog. The
// const char* form is for code outside src/ (bench harness marks), whose
// names are not catalog rows.
class Span {
 public:
  explicit Span(const char* name);
  explicit Span(Name name) : Span(row(name).name) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  const char* name_ = nullptr;  // null when tracing was off at open
  std::int64_t start_ns_ = 0;
  int depth_ = 0;
};

}  // namespace csq::obs

#ifndef CSQ_OBS_DISABLED

#define CSQ_OBS_CONCAT_INNER_(a, b) a##b
#define CSQ_OBS_CONCAT_(a, b) CSQ_OBS_CONCAT_INNER_(a, b)
// Line-numbered variable so two spans can share a scope (outer + retry).
#define CSQ_OBS_SPAN(name) \
  const ::csq::obs::Span CSQ_OBS_CONCAT_(csq_obs_span_, __LINE__)(CSQ_OBS_NAME_(name, kSpan))

#else

#define CSQ_OBS_SPAN(name) ((void)CSQ_OBS_NAME_(name, kSpan))

#endif  // CSQ_OBS_DISABLED
