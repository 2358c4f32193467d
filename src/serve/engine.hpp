// The serving-side inference engine: netlist in, criticality scores out,
// no fault campaign and no training anywhere on the path.
//
// score() maps a parsed netlist -> graph -> §3.1 features (golden
// simulation replayed with the bundle's recorded stimulus/seed/cycles) ->
// standardized matrix -> classifier probabilities + regressor scores.
// Bundles are loaded through a thread-safe LRU cache keyed by file
// content hash, so repeated requests against the same artifact skip the
// parse. A fixed worker pool with a bounded queue serves concurrent
// requests (submit() blocks while the queue is full — backpressure, not
// unbounded memory — or times out with EngineError(kQueueTimeout) when
// the caller passes a deadline; the daemon answers BUSY on a zero
// deadline). Every engine owns a private obs::Registry whose instruments
// (request/stage latency histograms with p50/p90/p99, cache hit/miss
// counters, a queue-depth gauge with high-water mark) back both metrics()
// and the metrics_json() snapshot the daemon's METRICS command returns; a
// per-engine registry keeps concurrent engines from mixing counts.
// Every worker scores on the cached bundle's own models, shared: scoring
// calls only the const GcnModel::infer(), whose buffers are per call, so
// concurrent requests against one bundle need no copy of its weights.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/netlist/netlist.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/request_trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/util/thread_annotations.hpp"

namespace fcrit::serve {

/// Typed failures of the engine's queueing layer (the scoring path itself
/// reports BundleError / lint::LintError / std::runtime_error).
enum class EngineErrorCode {
  kShutdown,      // submit() after shutdown()
  kQueueTimeout,  // the submit deadline expired while the queue stayed full
};

std::string_view to_string(EngineErrorCode code);

class EngineError : public std::runtime_error {
 public:
  EngineError(EngineErrorCode code, const std::string& message);
  EngineErrorCode code() const { return code_; }

 private:
  EngineErrorCode code_;
};

struct EngineConfig {
  int threads = 4;
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 8;
  /// Test-only instrumentation: when set, a worker invokes this right
  /// after dequeuing (the job already left the queue) and before scoring.
  /// Lets tests park a worker deterministically while they fill the queue
  /// behind it.
  std::function<void(const std::string& target_path)> before_score_hook =
      nullptr;
  /// Request-trace sink (not owned). Requests whose ScoreOptions carry a
  /// nonzero trace_id record queue_wait / parse / bundle_load / lint /
  /// content_hash / golden_sim / features / forward spans against it.
  /// Null or disabled: zero work on the scoring path.
  obs::RequestTraceCollector* traces = nullptr;
};

struct ScoreOptions {
  /// Refuse (BundleError kNetlistHashMismatch) to score a netlist whose
  /// content hash differs from the one the bundle was trained on. Off by
  /// default: cross-netlist scoring is the train-once/infer-cheap use
  /// case; the flag guards bit-identical reproduction claims.
  bool strict_hash = false;
  /// Request trace id from RequestTraceCollector::begin(); 0 = untraced.
  /// Does not affect scoring, only observability.
  std::uint64_t trace_id = 0;
};

struct ScoreResult {
  std::string target_name;
  std::string bundle_design;
  bool netlist_matched = false;  // target hash == manifest hash
  bool has_regressor = false;

  /// Candidate fault sites (gates + flops), the rows worth ranking.
  std::vector<netlist::NodeId> sites;
  std::vector<std::string> node_names;  // per node id
  std::vector<double> proba;            // classifier P(Critical) per node id
  std::vector<int> predicted;           // classifier class per node id
  std::vector<double> score;            // regressor (proba when absent)

  /// Stage times, read from the same clock readings as the request's
  /// spans: stats_seconds is golden_sim + features (signal statistics,
  /// features, graph, fault sites and node names), forward_seconds is
  /// forward (classifier + regressor inference).
  double stats_seconds = 0.0;
  double forward_seconds = 0.0;
  std::uint64_t trace_id = 0;  // echo of ScoreOptions::trace_id
};

/// The `sites` of a result ranked by descending score, truncated to n
/// (n <= 0 keeps all).
std::vector<netlist::NodeId> top_sites(const ScoreResult& result, int n);

struct MetricsSnapshot {
  std::uint64_t requests = 0;   // score attempts started
  std::uint64_t completed = 0;  // finished without throwing
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t submit_timeouts = 0;  // submit deadlines that expired
  std::size_t queue_depth = 0;  // jobs waiting right now
  std::size_t queue_high_water = 0;
  double uptime_seconds = 0.0;  // since engine construction
  double load_seconds = 0.0;  // bundle fetch (cache hit or parse)
  double stats_seconds = 0.0;
  double forward_seconds = 0.0;
  /// End-to-end latency of successful score() calls; p50/p90/p99 via
  /// request_ms.percentile(). All duration fields come from one histogram
  /// snapshot, so the derived mean can never exceed the observed max (the
  /// torn load_nanos_/completed_ read the hand-rolled atomics had).
  obs::HistogramSnapshot request_ms;

  double cache_hit_ratio() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : double(cache_hits) / double(total);
  }
};

/// Thread-safe LRU of parsed bundles keyed by file content hash. Sharing
/// is by shared_ptr, so an entry evicted mid-request stays alive until
/// the request drops it. Hit/miss counts go to registry counters when the
/// owner provides them (the ScoringEngine does), else to private ones.
class BundleCache {
 public:
  explicit BundleCache(std::size_t capacity,
                       obs::Counter* hits = nullptr,
                       obs::Counter* misses = nullptr)
      : capacity_(capacity),
        hits_(hits ? hits : &own_hits_),
        misses_(misses ? misses : &own_misses_) {}

  /// Read + hash the file at `path`, returning the cached parse when the
  /// bytes were seen before. Throws BundleError on unreadable/invalid
  /// files. Exactly one hit or miss is counted per call; `cache_hit`
  /// (optional) reports which, for request-trace span details.
  std::shared_ptr<const ModelBundle> get(const std::string& path,
                                         bool* cache_hit = nullptr);

  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  std::size_t size() const;

 private:
  using Entry = std::pair<std::uint64_t, std::shared_ptr<const ModelBundle>>;

  std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::list<Entry> lru_ GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
      GUARDED_BY(mutex_);
  obs::Counter own_hits_;
  obs::Counter own_misses_;
  obs::Counter* hits_;
  obs::Counter* misses_;
};

class ScoringEngine {
 public:
  explicit ScoringEngine(EngineConfig config = {});
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  const EngineConfig& config() const { return config_; }

  /// Synchronous scoring of an in-memory design against a bundle file.
  /// The bundle's stimulus profiles drive the golden simulation (they are
  /// part of the deployed artifact), not the design's own.
  ScoreResult score(const std::string& bundle_path,
                    const designs::Design& target, ScoreOptions opts = {});

  /// Synchronous scoring of a target path: a registered design name or a
  /// .v/.bench netlist file. A target that fails to load counts as one
  /// request and one error.
  ScoreResult score_path(const std::string& bundle_path,
                         const std::string& target_path,
                         ScoreOptions opts = {});

  /// Enqueue onto the worker pool; blocks while the queue is at capacity,
  /// or — when `queue_timeout` is set — gives up after that long with
  /// EngineError(kQueueTimeout) so callers (the daemon's BUSY answer) can
  /// shed load instead of hanging. Throws EngineError(kShutdown) after
  /// shutdown().
  std::future<ScoreResult> submit(
      std::string bundle_path, std::string target_path,
      ScoreOptions opts = {},
      std::optional<std::chrono::milliseconds> queue_timeout = std::nullopt);

  /// Stop accepting work, drain every queued job, join the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Pre-populate the bundle cache so the first request does not pay the
  /// parse. Throws BundleError on an unreadable or invalid bundle.
  void prewarm(const std::string& bundle_path);

  MetricsSnapshot metrics() const;

  /// One JSON object — uptime, counters, cache hit ratio, queue depth and
  /// the latency histograms (p50/p90/p99) — the payload of the daemon's
  /// METRICS command and the SIGINT drain log.
  std::string metrics_json() const;

  /// The request-trace sink wired in via EngineConfig (null when none).
  obs::RequestTraceCollector* trace_collector() const {
    return config_.traces;
  }

 private:
  struct Job {
    std::string bundle_path;
    std::string target_path;
    ScoreOptions opts;
    std::promise<ScoreResult> promise;
    /// Stamped by submit() only for traced jobs; feeds the queue_wait span.
    obs::TraceClock::time_point enqueued;
  };

  void worker_loop();
  void run_job(Job job);
  /// load_score_target, counting a target that fails to load (missing,
  /// unparsable, over the size limit) as one request and one error, as
  /// score() counts its own failures.
  designs::Design load_target(const std::string& target_path);

  EngineConfig config_;
  // Declared before cache_/instrument pointers: they borrow from it.
  obs::Registry registry_;
  BundleCache cache_;

  mutable util::Mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Job> queue_ GUARDED_BY(queue_mutex_);
  bool stopping_ GUARDED_BY(queue_mutex_) = false;
  std::vector<std::thread> workers_;  // touched only by the owner thread

  std::chrono::steady_clock::time_point started_;
  obs::Counter* requests_;
  obs::Counter* completed_;
  obs::Counter* errors_;
  obs::Counter* submit_timeouts_;
  obs::Gauge* queue_depth_;
  obs::Histogram* request_ms_;
  obs::Histogram* load_ms_;
  obs::Histogram* stats_ms_;
  obs::Histogram* forward_ms_;
};

/// Resolve a score target: registered design name, or a .v/.bench file
/// parsed from disk (same convention as the CLI).
designs::Design load_score_target(const std::string& arg);

}  // namespace fcrit::serve
