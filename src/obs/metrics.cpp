#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/obs/json.hpp"

namespace fcrit::obs {

namespace {

/// Relaxed CAS add for atomic<double> (fetch_add over doubles is not
/// universally lock-free; the CAS loop is, on every target we build for).
void atomic_add(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::set(std::int64_t v) {
  v_.store(v, std::memory_order_relaxed);
  raise_high_water(v);
}

void Gauge::add(std::int64_t delta) {
  raise_high_water(v_.fetch_add(delta, std::memory_order_relaxed) + delta);
}

void Gauge::raise_high_water(std::int64_t v) {
  std::int64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

const std::vector<double>& default_latency_buckets_ms() {
  static const std::vector<double> kBuckets = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,  0.5,  1.0,  2.0,
      5.0,   10.0,  20.0,  50.0, 100., 200., 500., 1e3,  2e3,  5e3,  1e4};
  return kBuckets;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * double(count))));
  std::uint64_t cum = 0;
  double value = max;  // rank beyond the bounded buckets -> overflow -> max
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) {
      value = i < bounds.size() ? bounds[i] : max;
      break;
    }
  }
  return std::clamp(value, min, max);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::invalid_argument(
        "Histogram bounds must be strictly increasing");
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  // Order matters for snapshot coherence (see HistogramSnapshot): buckets
  // and extrema first, sum next, the sample count last.
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
  atomic_add(sum_, value);
  count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  // Mirror order of observe(): sum before count keeps mean() <= true mean;
  // extrema and buckets after count keep them supersets of the counted
  // samples, so percentile() and mean() never exceed the observed max.
  s.sum = sum_.load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  s.min = s.count == 0 || !std::isfinite(lo) ? 0.0 : lo;
  s.max = s.count == 0 || !std::isfinite(hi) ? 0.0 : hi;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_)
    s.counts.push_back(c.load(std::memory_order_relaxed));
  return s;
}

Counter& Registry::counter(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  return histogram(name, default_latency_buckets_ms());
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  util::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::string histogram_json(const HistogramSnapshot& h) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(h.count);
  out += ",\"sum\":" + json_number(h.sum);
  out += ",\"min\":" + json_number(h.min);
  out += ",\"max\":" + json_number(h.max);
  out += ",\"mean\":" + json_number(h.mean());
  out += ",\"p50\":" + json_number(h.percentile(50));
  out += ",\"p90\":" + json_number(h.percentile(90));
  out += ",\"p99\":" + json_number(h.percentile(99));
  // The full ladder, empty buckets included: "bounds" are the bucket upper
  // bounds and "counts" has one extra trailing entry for the overflow
  // bucket, so a consumer can re-derive cumulative buckets or exact
  // shapes; "buckets" below is the compact non-empty view.
  out += ",\"bounds\":[";
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (i != 0) out += ",";
    out += json_number(h.bounds[i]);
  }
  out += "],\"counts\":[";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(h.counts[i]);
  }
  out += "],\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    const double le = i < h.bounds.size()
                          ? h.bounds[i]
                          : std::numeric_limits<double>::infinity();
    out += "[";
    out += std::isfinite(le) ? json_number(le) : json_string("inf");
    out += ",";
    out += std::to_string(h.counts[i]);
    out += "]";
  }
  out += "]}";
  return out;
}

Registry& registry() {
  static Registry* instance = new Registry();  // never destroyed: worker
  return *instance;  // threads may record during static teardown
}

}  // namespace fcrit::obs
