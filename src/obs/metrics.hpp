// Process-wide metrics substrate: counters, gauges and fixed-bucket
// latency histograms, all lock-free on the hot path.
//
// Instruments are owned by a Registry and live for its lifetime, so a hot
// loop resolves the name once (mutex-guarded map lookup) and then records
// through a stable reference with nothing but relaxed atomic updates. The
// process-wide registry() holds the GCN kernel and epoch histograms that
// perfbench reads; the serve ScoringEngine owns a private Registry per
// instance so concurrent engines (tests spin up several) never mix
// counts, and reports every one of its instruments in the daemon's
// METRICS reply (ScoringEngine::metrics_json, histogram_json).
//
// Histogram percentile semantics: observations land in fixed buckets
// (default: a 1-2-5 latency ladder in milliseconds, 1 µs .. 10 s, plus an
// overflow bucket). percentile() returns the upper bound of the bucket the
// rank falls in, clamped into [min, max] of everything observed — so an
// empty histogram reports 0, a single-sample histogram reports that
// sample exactly, and the overflow bucket reports the observed maximum.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/thread_annotations.hpp"

namespace fcrit::obs {

/// Monotonic event count. All updates are relaxed: totals are exact once
/// the writers are quiesced, momentarily approximate while they run.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depth, live connections) with a monotonic
/// high-water mark.
class Gauge {
 public:
  void set(std::int64_t v);
  void add(std::int64_t delta);
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t high_water() const {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t v);

  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// The default fixed bucket ladder: 1-2-5 steps from 0.001 ms to 10000 ms.
const std::vector<double>& default_latency_buckets_ms();

/// A coherent-enough copy of a Histogram. Fields are read in an order that
/// keeps derived statistics conservative under concurrent writers: sum is
/// read before count and max after it, so mean() can momentarily
/// under-report but never exceeds the true maximum (the torn-read bug the
/// serve engine's hand-rolled atomics had).
struct HistogramSnapshot {
  std::vector<double> bounds;          // bucket upper bounds
  std::vector<std::uint64_t> counts;   // bounds.size() + 1, last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;  // 0 when empty

  double mean() const { return count == 0 ? 0.0 : sum / double(count); }
  /// p in [0, 100]; see the header comment for the bucket semantics.
  double percentile(double p) const;
};

class Histogram {
 public:
  /// `bounds` must be strictly increasing; observations above the last
  /// bound land in the overflow bucket.
  explicit Histogram(std::vector<double> bounds = default_latency_buckets_ms());

  void observe(double value);
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Named instruments with stable addresses: the first lookup of a name
/// creates the instrument, every later lookup (any thread) returns the
/// same reference. Lookups take a mutex; recording does not.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
};

/// Histogram summary as a JSON object, the serve engine's METRICS
/// rendering: count/sum/min/max/mean/p50/p90/p99, the full bucket ladder
/// ("bounds" upper bounds and per-bucket "counts", overflow last) plus the
/// non-empty buckets as [upper_bound, count] pairs.
std::string histogram_json(const HistogramSnapshot& h);

/// The process-wide registry: the ml.kernel.*_ms and
/// ml.{classifier,regressor}.epoch_ms histograms.
Registry& registry();

}  // namespace fcrit::obs
