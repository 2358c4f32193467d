#include "src/obs/exporter.hpp"

#include "src/obs/json.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"

namespace fcrit::obs {

namespace {

std::uint64_t wall_unix_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TelemetryExporter::TelemetryExporter() : file_(nullptr, &std::fclose) {}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::add_registry(std::string name,
                                     const Registry& registry) {
  util::MutexLock lock(mutex_);
  registries_.emplace_back(std::move(name), &registry);
}

bool TelemetryExporter::start(const std::string& path,
                              double interval_seconds) {
  util::MutexLock lock(mutex_);
  if (running_ || file_) return false;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) {
    logf(LogLevel::kWarn, "cannot open telemetry output %s", path.c_str());
    return false;
  }
  file_.reset(f);
  t0_ = std::chrono::steady_clock::now();
  interval_seconds_ = interval_seconds > 0 ? interval_seconds : 0.0;
  if (interval_seconds <= 0) return true;  // manual mode: no thread
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this, interval_seconds] { run(interval_seconds); });
  return true;
}

void TelemetryExporter::stop() {
  {
    util::MutexLock lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  util::MutexLock lock(mutex_);
  running_ = false;
  file_.reset();
}

bool TelemetryExporter::running() const {
  util::MutexLock lock(mutex_);
  return running_;
}

void TelemetryExporter::run(double interval_seconds) {
  const auto interval = std::chrono::duration<double>(interval_seconds);
  for (;;) {
    {
      util::MutexLock lock(mutex_);
      // Explicit predicate loop (not a wait lambda): the thread-safety
      // analysis can only see guarded reads made directly in this scope.
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_requested_) {
        if (cv_.wait_until(lock.native(), deadline) ==
            std::cv_status::timeout)
          break;
      }
      if (stop_requested_) return;
    }
    snapshot_now();
  }
}

void TelemetryExporter::snapshot_now() {
  const auto tick_start = std::chrono::steady_clock::now();

  // Copy the registry list so snapshots run outside the exporter mutex;
  // each only takes its own registry's name-map mutex.
  std::vector<std::pair<std::string, const Registry*>> registries;
  double interval_seconds = 0.0;
  {
    util::MutexLock lock(mutex_);
    if (!file_) return;
    registries = registries_;
    interval_seconds = interval_seconds_;
  }

  const double mono_ms =
      std::chrono::duration<double, std::milli>(tick_start - t0_).count();
  std::string line = "{\"seq\":" +
                     std::to_string(snapshots_.load(std::memory_order_relaxed) +
                                    1);
  line += ",\"mono_ms\":" + json_number(mono_ms);
  line += ",\"wall_unix_ms\":" + std::to_string(wall_unix_ms());
  line += ",\"interval_seconds\":" + json_number(interval_seconds);
  line += ",\"registries\":{";
  for (std::size_t i = 0; i < registries.size(); ++i) {
    if (i != 0) line += ",";
    line += json_string(registries[i].first) + ":" +
            registries[i].second->to_json();
  }
  line += "}}\n";

  {
    util::MutexLock lock(mutex_);
    if (!file_) return;
    std::fwrite(line.data(), 1, line.size(), file_.get());
    std::fflush(file_.get());
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  last_mono_ms_.store(mono_ms, std::memory_order_relaxed);
  last_lag_ms_.store(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - tick_start)
                         .count(),
                     std::memory_order_relaxed);
}

TelemetryExporter::Status TelemetryExporter::status() const {
  Status s;
  {
    util::MutexLock lock(mutex_);
    s.running = running_;
    s.interval_seconds = interval_seconds_;
  }
  s.snapshots = snapshots_.load(std::memory_order_relaxed);
  s.last_lag_ms = last_lag_ms_.load(std::memory_order_relaxed);
  s.last_mono_ms = last_mono_ms_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fcrit::obs
