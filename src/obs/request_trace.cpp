#include "src/obs/request_trace.hpp"

#include <algorithm>
#include <cinttypes>

#include "src/obs/json.hpp"
#include "src/obs/log.hpp"

namespace fcrit::obs {

namespace {

// How many begun-but-unfinished traces we are willing to hold. A layer
// that begins a trace always finishes it, so this only matters if a caller
// leaks ids; saturation makes begin() return 0 (request runs untraced)
// instead of growing without bound.
constexpr std::size_t kMaxActive = 4096;

double ms_between(TraceClock::time_point a, TraceClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string request_trace_json(const RequestTrace& t) {
  std::string out = "{\"id\":" + json_string(std::to_string(t.id));
  out += ",\"bundle\":" + json_string(t.bundle);
  out += ",\"target\":" + json_string(t.target);
  out += ",\"verdict\":" + json_string(t.verdict);
  out += ",\"error\":" + json_string(t.error);
  out += ",\"start_unix_ms\":" + std::to_string(t.start_unix_ms);
  out += ",\"total_ms\":" + json_number(t.total_ms);
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const TraceSpan& s = t.spans[i];
    if (i != 0) out += ",";
    out += "{\"name\":" + json_string(s.name);
    out += ",\"start_ms\":" + json_number(s.start_ms);
    out += ",\"dur_ms\":" + json_number(s.dur_ms);
    if (!s.detail.empty()) out += ",\"detail\":" + json_string(s.detail);
    out += "}";
  }
  out += "]}";
  return out;
}

RequestTraceCollector::RequestTraceCollector(std::size_t ring_capacity)
    : ring_capacity_(std::max<std::size_t>(1, ring_capacity)),
      log_(nullptr, &std::fclose) {
  // Seed id generation off the collector's address and construction time:
  // ids must be unique within a process run and unlikely to collide across
  // runs, nothing stronger.
  id_seed_ = splitmix64(reinterpret_cast<std::uintptr_t>(this) ^
                        static_cast<std::uint64_t>(
                            TraceClock::now().time_since_epoch().count()));
}

RequestTraceCollector::~RequestTraceCollector() = default;

std::uint64_t RequestTraceCollector::next_id() {
  // splitmix64 over a counter: sequential inputs, well-mixed 64-bit
  // outputs. 0 is reserved as "untraced"; remix until nonzero.
  std::uint64_t id = 0;
  while (id == 0)
    id = splitmix64(id_seed_ + seq_.fetch_add(1, std::memory_order_relaxed));
  return id;
}

std::uint64_t RequestTraceCollector::begin(const std::string& bundle,
                                           const std::string& target,
                                           std::uint64_t client_id) {
  if (!enabled()) return 0;
  const std::uint64_t id = client_id != 0 ? client_id : next_id();
  RequestTrace t;
  t.id = id;
  t.bundle = bundle;
  t.target = target;
  t.t0 = TraceClock::now();
  t.start_unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  util::MutexLock lock(mutex_);
  if (active_.size() >= kMaxActive && !active_.count(id)) return 0;
  active_[id] = std::move(t);  // a reused client id restarts its trace
  return id;
}

void RequestTraceCollector::span(std::uint64_t id, const std::string& name,
                                 TraceClock::time_point start,
                                 TraceClock::time_point end,
                                 const std::string& detail) {
  if (!enabled() || id == 0) return;
  util::MutexLock lock(mutex_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  TraceSpan s;
  s.name = name;
  s.start_ms = ms_between(it->second.t0, start);
  s.dur_ms = ms_between(start, end);
  s.detail = detail;
  it->second.spans.push_back(std::move(s));
}

void RequestTraceCollector::finish(std::uint64_t id, const std::string& verdict,
                                   const std::string& error) {
  if (!enabled() || id == 0) return;
  RequestTrace done;
  {
    util::MutexLock lock(mutex_);
    auto it = active_.find(id);
    if (it == active_.end()) return;
    done = std::move(it->second);
    active_.erase(it);
    done.verdict = verdict;
    done.error = error;
    done.total_ms = ms_between(done.t0, TraceClock::now());
    ring_.push_back(done);
    while (ring_.size() > ring_capacity_) {
      ring_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Serialization and file/logger I/O happen outside the ring mutex so a
  // slow disk never stalls span recording on the scoring path.
  write_wide_event(done);
}

std::optional<RequestTrace> RequestTraceCollector::find(
    std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  // Newest first: a reused client id should resolve to its latest request.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
    if (it->id == id) return *it;
  return std::nullopt;
}

std::vector<RequestTrace> RequestTraceCollector::last(std::size_t n) const {
  util::MutexLock lock(mutex_);
  const std::size_t take = std::min(n, ring_.size());
  // Newest first — the order a human paging through TRACE LAST wants.
  std::vector<RequestTrace> out;
  out.reserve(take);
  for (auto it = ring_.rbegin(); it != ring_.rbegin() + static_cast<long>(take);
       ++it)
    out.push_back(*it);
  return out;
}

std::size_t RequestTraceCollector::ring_size() const {
  util::MutexLock lock(mutex_);
  return ring_.size();
}

std::size_t RequestTraceCollector::active_size() const {
  util::MutexLock lock(mutex_);
  return active_.size();
}

bool RequestTraceCollector::open_access_log(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) {
    logf(LogLevel::kWarn, "cannot open access log %s", path.c_str());
    return false;
  }
  util::MutexLock lock(log_mutex_);
  log_.reset(f);
  return true;
}

void RequestTraceCollector::write_wide_event(const RequestTrace& t) {
  const double slow = slow_ms();
  const bool mirror =
      slow >= 0.0 && (t.verdict != "ok" || t.total_ms >= slow);
  std::string line;
  {
    util::MutexLock lock(log_mutex_);
    if (log_) {
      line = request_trace_json(t);
      line += '\n';
      std::fwrite(line.data(), 1, line.size(), log_.get());
      std::fflush(log_.get());
    }
  }
  if (mirror) {
    logf(LogLevel::kWarn,
         "request id=%" PRIu64 " verdict=%s bundle=%s total_ms=%.3f%s%s",
         t.id, t.verdict.c_str(), t.bundle.c_str(), t.total_ms,
         t.error.empty() ? "" : " error=", t.error.c_str());
  }
}

}  // namespace fcrit::obs
