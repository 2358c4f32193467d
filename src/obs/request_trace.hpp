// Request-scoped tracing for the scoring daemon: one RequestTrace per
// SCORE request, carrying named spans (queue_wait, parse, bundle_load,
// lint, content_hash, golden_sim, features, forward).
//
// The collector is the single rendezvous between the daemon front end and
// the engine's workers: the server calls begin() (honoring a client's id=
// token), every layer that touches the request records spans against the
// 64-bit id, and the server calls finish() with the request's outcome.
// Finished traces move into a bounded in-memory ring served by the
// TRACE <id> / TRACE LAST <n> daemon verbs, and optionally append one
// JSONL wide event per request to an access log (open_access_log), with
// slow/shed/errored requests mirrored to the leveled logger once a
// --slow-ms threshold is set.
//
// Contract (same as the phase Tracer): when tracing is disabled, every
// call on the hot path costs exactly one relaxed atomic load. When
// enabled, mutations take a mutex — request granularity (a handful of
// spans around multi-millisecond sim/forward work), not kernel
// granularity, so contention is negligible next to the work being traced.
//
// Trace ids are emitted as decimal *strings* in JSON: they use the full
// 64-bit range, which does not survive an IEEE-double JSON parser.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/thread_annotations.hpp"

namespace fcrit::obs {

using TraceClock = std::chrono::steady_clock;

/// One timed stage of a request, offsets in milliseconds since the
/// request's begin().
struct TraceSpan {
  std::string name;
  double start_ms = 0.0;
  double dur_ms = 0.0;
  std::string detail;  // "cache-hit", "parse", ...
};

struct RequestTrace {
  std::uint64_t id = 0;
  std::string bundle;
  std::string target;
  std::string verdict;  // "ok" | "error" | "shed"
  std::string error;    // message when verdict != ok
  std::vector<TraceSpan> spans;
  double total_ms = 0.0;
  std::uint64_t start_unix_ms = 0;  // wall clock at begin(), for humans
  TraceClock::time_point t0;        // span offsets are relative to this
};

/// One RequestTrace as a single-line JSON object (the wide-event shape the
/// access log appends and the TRACE verb returns).
std::string request_trace_json(const RequestTrace& t);

class RequestTraceCollector {
 public:
  explicit RequestTraceCollector(std::size_t ring_capacity = 256);
  ~RequestTraceCollector();

  RequestTraceCollector(const RequestTraceCollector&) = delete;
  RequestTraceCollector& operator=(const RequestTraceCollector&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Start a trace; returns its id (generated, or `client_id` when the
  /// SCORE line carried an id= token), 0 when tracing is disabled or the
  /// active table is saturated (the request proceeds untraced).
  std::uint64_t begin(const std::string& bundle, const std::string& target,
                      std::uint64_t client_id = 0);

  /// Record a completed span against an active trace. All mutators are
  /// no-ops when disabled or id == 0, so call sites never branch.
  void span(std::uint64_t id, const std::string& name,
            TraceClock::time_point start, TraceClock::time_point end,
            const std::string& detail = "");

  /// Complete the trace: stamps total_ms, moves it from the active table
  /// into the ring, appends the wide event to the access log (if open) and
  /// mirrors slow/shed/errored requests to the logger (if slow-ms is set).
  void finish(std::uint64_t id, const std::string& verdict,
              const std::string& error = "");

  /// Ring accessors (finished traces only, oldest evicted first).
  std::optional<RequestTrace> find(std::uint64_t id) const;
  std::vector<RequestTrace> last(std::size_t n) const;
  std::size_t ring_size() const;
  std::size_t ring_capacity() const { return ring_capacity_; }
  /// Finished traces evicted from the ring so far.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t active_size() const;

  /// Open (append) the JSONL wide-event access log. Returns false and
  /// leaves logging off when the file cannot be opened.
  bool open_access_log(const std::string& path);
  /// Mirror requests slower than `ms` — and every shed/errored request —
  /// to the leveled logger at warn. Negative disables (the default).
  void set_slow_ms(double ms) { slow_ms_.store(ms, std::memory_order_relaxed); }
  double slow_ms() const { return slow_ms_.load(std::memory_order_relaxed); }

 private:
  std::uint64_t next_id();
  void write_wide_event(const RequestTrace& t);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::uint64_t id_seed_ = 0;
  std::size_t ring_capacity_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<double> slow_ms_{-1.0};

  mutable util::Mutex mutex_;
  std::unordered_map<std::uint64_t, RequestTrace> active_ GUARDED_BY(mutex_);
  std::deque<RequestTrace> ring_ GUARDED_BY(mutex_);

  util::Mutex log_mutex_;  // access-log file handle
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> log_ GUARDED_BY(log_mutex_);
};

}  // namespace fcrit::obs
