#include "src/obs/trace.hpp"

#include <atomic>
#include <fstream>
#include <ostream>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace fcrit::obs {

namespace {

/// Small dense thread ids: stabler across runs than hashed
/// std::thread::id, and they render compactly in the trace viewer.
int current_tid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // never destroyed: spans may close
  return *tracer;                        // during static teardown
}

void Tracer::start() {
  {
    util::MutexLock lock(mutex_);
    events_.clear();
  }
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::record(TraceEvent event) {
  util::MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  util::MutexLock lock(mutex_);
  return events_;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = this->events();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << json_string(e.name)
       << ",\"cat\":\"fcrit\",\"ph\":\"X\",\"ts\":" << e.ts_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << e.tid << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return os.good();
}

Span::Span(std::string name, Histogram* hist)
    : name_(std::move(name)),
      hist_(hist),
      traced_(Tracer::instance().enabled()),
      start_(std::chrono::steady_clock::now()) {}

double Span::close() {
  if (!open_) return seconds_;
  open_ = false;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (hist_) hist_->observe(seconds_ * 1e3);
  if (!traced_) return seconds_;
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return seconds_;  // stopped mid-span: drop it
  using us = std::chrono::microseconds;
  TraceEvent e;
  e.name = std::move(name_);
  e.ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<us>(start_ - tracer.epoch()).count());
  e.dur_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<us>(end - start_).count());
  e.tid = current_tid();
  tracer.record(std::move(e));
  return seconds_;
}

}  // namespace fcrit::obs
