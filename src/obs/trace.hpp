// Phase-scoped tracing: RAII spans that nest, record wall time + thread
// id, and export Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// obs::Span is fcrit's one stage timer. It reads the clock when it opens
// and when it closes; close() returns the span's seconds, and the optional
// Histogram receives its milliseconds. Every `*_seconds` result field and
// stage histogram is read from a span (in the scoring engine, from the
// stage boundaries its request spans share), so a trace and a result
// cannot disagree about a stage.
//
// The Tracer is a process-wide singleton that is off by default. A span
// records a trace event only when tracing was on at its construction and
// still is at its close; with tracing off it costs two steady_clock reads
// and one relaxed atomic load, the price of timing the stage at all. So the
// pipeline stays instrumented permanently and pays for events only when
// someone asks for a trace (`fcrit pipeline --trace-out`). Spans emit "X"
// (complete) events; nesting falls out of the begin/end timestamps, so no
// per-thread stack is kept and spans may close on a different thread than
// they opened on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/thread_annotations.hpp"

namespace fcrit::obs {

class Histogram;

struct TraceEvent {
  std::string name;
  std::uint64_t ts_us = 0;   // start, microseconds since Tracer::start()
  std::uint64_t dur_us = 0;  // duration, microseconds
  int tid = 0;               // small dense per-thread id
};

class Tracer {
 public:
  static Tracer& instance();

  /// Enable collection, dropping any previously collected events.
  void start();
  void stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(TraceEvent event);
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void write_chrome_trace(std::ostream& os) const;
  /// Convenience: write to `path`; false when the file cannot be opened.
  bool write_chrome_trace_file(const std::string& path) const;

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_{};
  mutable util::Mutex mutex_;
  std::vector<TraceEvent> events_ GUARDED_BY(mutex_);
};

/// RAII stage span against the global Tracer: times the stage always,
/// records a trace event when tracing is on, and lands one sample in
/// `hist` (milliseconds) when one is given.
class Span {
 public:
  explicit Span(std::string name, Histogram* hist = nullptr);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span and return its seconds. The first call ends it; later
  /// calls (and the destructor) return the same seconds and record nothing.
  double close();

 private:
  std::string name_;
  Histogram* hist_;
  bool traced_;
  bool open_ = true;
  double seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fcrit::obs
