// Continuous telemetry export: a background thread that snapshots a set
// of named registries every `interval` seconds and appends one JSONL line
// per tick to a file.
//
// Line shape:
//   {"seq":N,"mono_ms":M,"wall_unix_ms":W,"interval_seconds":S,
//    "registries":{"<name>":{counters,gauges,histograms},...}}
// `seq` and `mono_ms` are relative to exporter start on a monotonic
// clock — after a daemon restart both reset near zero while wall_unix_ms
// keeps climbing, which is how a consumer detects the discontinuity and
// avoids computing negative counter deltas across it.
//
// The exporter never locks scoring workers: Registry::snapshot() only
// takes the registry's name-map mutex (recording threads never do), and
// all file I/O happens on the exporter thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.hpp"

namespace fcrit::obs {

class Registry;

class TelemetryExporter {
 public:
  struct Status {
    bool running = false;
    double interval_seconds = 0.0;
    std::uint64_t snapshots = 0;   // lines written since start
    double last_lag_ms = 0.0;      // duration of the last snapshot+write
    double last_mono_ms = 0.0;     // mono_ms stamped on the last line
  };

  TelemetryExporter();
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Snapshot `registry` via Registry::to_json under "registries"/`name`
  /// on every line; it must outlive the exporter.
  void add_registry(std::string name, const Registry& registry);

  /// Open `path` for append and start ticking every `interval_seconds`.
  /// interval_seconds <= 0 opens the file but spawns no thread — the
  /// deterministic mode tests use, driving ticks via snapshot_now().
  /// Returns false (and does not start) if the file cannot be opened or
  /// the exporter is already running.
  bool start(const std::string& path, double interval_seconds);
  /// Stop the thread and close the file; the file ends on a complete line.
  void stop();
  bool running() const;

  /// Write one snapshot line immediately (also what the tick loop calls).
  void snapshot_now();

  Status status() const;

 private:
  void run(double interval_seconds);

  mutable util::Mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ GUARDED_BY(mutex_) = false;
  bool running_ GUARDED_BY(mutex_) = false;
  std::thread thread_;  // started/joined from one controller thread
  std::vector<std::pair<std::string, const Registry*>> registries_
      GUARDED_BY(mutex_);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_ GUARDED_BY(mutex_);

  std::chrono::steady_clock::time_point t0_;  // written once, before ticks
  double interval_seconds_ GUARDED_BY(mutex_) = 0.0;
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<double> last_lag_ms_{0.0};
  std::atomic<double> last_mono_ms_{0.0};
};

}  // namespace fcrit::obs
