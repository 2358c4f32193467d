#include "src/serve/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/fault/fault.hpp"
#include "src/graphir/graph.hpp"
#include "src/lint/lint.hpp"
#include "src/obs/json.hpp"
#include "src/netlist/bench_format.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/sim/probability.hpp"
#include "src/util/text.hpp"

namespace fcrit::serve {

std::string_view to_string(EngineErrorCode code) {
  switch (code) {
    case EngineErrorCode::kShutdown: return "shutdown";
    case EngineErrorCode::kQueueTimeout: return "queue-timeout";
  }
  return "unknown";
}

EngineError::EngineError(EngineErrorCode code, const std::string& message)
    : std::runtime_error(message), code_(code) {}

std::shared_ptr<const ModelBundle> BundleCache::get(const std::string& path,
                                                    bool* cache_hit) {
  if (cache_hit) *cache_hit = false;
  const std::string bytes = read_bundle_file(path);
  const std::uint64_t key = fnv1a64(bytes);
  {
    util::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_->add();
      if (cache_hit) *cache_hit = true;
      return lru_.front().second;
    }
  }
  misses_->add();
  // Parse outside the lock: concurrent first-touch requests may duplicate
  // the work, but never block each other behind a cold load.
  std::istringstream is(bytes);
  auto bundle = std::make_shared<const ModelBundle>(load_bundle(is));
  util::MutexLock lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().second;  // another thread won the race
  }
  lru_.emplace_front(key, bundle);
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return bundle;
}

std::size_t BundleCache::size() const {
  util::MutexLock lock(mutex_);
  return lru_.size();
}

std::vector<netlist::NodeId> top_sites(const ScoreResult& result, int n) {
  std::vector<netlist::NodeId> ranked = result.sites;
  std::sort(ranked.begin(), ranked.end(),
            [&](netlist::NodeId a, netlist::NodeId b) {
              if (result.score[a] != result.score[b])
                return result.score[a] > result.score[b];
              return a < b;  // deterministic tie-break
            });
  if (n > 0 && ranked.size() > static_cast<std::size_t>(n))
    ranked.resize(static_cast<std::size_t>(n));
  return ranked;
}

designs::Design load_score_target(const std::string& arg) {
  const bool is_file =
      util::ends_with(arg, ".v") || util::ends_with(arg, ".bench");
  if (!is_file) return designs::build_design(arg);
  const std::string text = netlist::read_netlist_file(arg);
  designs::Design d;
  d.name = arg;
  d.netlist = util::ends_with(arg, ".bench") ? netlist::parse_bench(text)
                                             : netlist::parse_verilog(text);
  return d;
}

ScoringEngine::ScoringEngine(EngineConfig config)
    : config_(std::move(config)),
      cache_(std::max<std::size_t>(1, config_.cache_capacity),
             &registry_.counter("serve.cache_hits"),
             &registry_.counter("serve.cache_misses")),
      started_(std::chrono::steady_clock::now()),
      requests_(&registry_.counter("serve.requests")),
      completed_(&registry_.counter("serve.completed")),
      errors_(&registry_.counter("serve.errors")),
      submit_timeouts_(&registry_.counter("serve.submit_timeouts")),
      queue_depth_(&registry_.gauge("serve.queue_depth")),
      request_ms_(&registry_.histogram("serve.request_ms")),
      load_ms_(&registry_.histogram("serve.load_ms")),
      stats_ms_(&registry_.histogram("serve.stats_ms")),
      forward_ms_(&registry_.histogram("serve.forward_ms")) {
  config_.threads = std::max(1, config_.threads);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.cache_capacity = std::max<std::size_t>(1, config_.cache_capacity);
  workers_.reserve(static_cast<std::size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ScoringEngine::~ScoringEngine() { shutdown(); }

ScoreResult ScoringEngine::score(const std::string& bundle_path,
                                 const designs::Design& target,
                                 ScoreOptions opts) {
  requests_->add();
  // One pointer null-check per stage when untraced (trace_id stays 0
  // unless a collector was enabled at begin()); span recording otherwise.
  obs::RequestTraceCollector* tc =
      opts.trace_id != 0 ? config_.traces : nullptr;
  // One clock reading per stage boundary: lap() ends the current stage at
  // the reading that starts the next one, so the stages tile the request
  // without overlap, and the seconds it returns are the traced span's.
  const auto t_request = obs::TraceClock::now();
  auto mark = t_request;
  auto lap = [&](const char* stage, const char* detail = "") {
    const auto now = obs::TraceClock::now();
    if (tc) tc->span(opts.trace_id, stage, mark, now, detail);
    const double seconds = std::chrono::duration<double>(now - mark).count();
    mark = now;
    return seconds;
  };
  try {
    bool cache_hit = false;
    const auto bundle = cache_.get(bundle_path, &cache_hit);
    load_ms_->observe(lap("bundle_load", cache_hit ? "cache-hit" : "parse") *
                      1e3);

    const BundleManifest& m = bundle->manifest;
    const netlist::Netlist& nl = target.netlist;
    nl.validate();

    // Lint preflight: a user-supplied netlist with structural errors
    // (combinational loops, undriven pins, duplicate names) is rejected
    // with the full report instead of being scored garbage-in/garbage-out.
    lint::LintReport preflight = lint::preflight(nl);
    preflight.target_name = target.name;
    lap("lint");
    if (preflight.errors() > 0) throw lint::LintError(std::move(preflight));

    ScoreResult r;
    r.target_name = target.name;
    r.bundle_design = m.design_name;
    r.netlist_matched = netlist_content_hash(nl) == m.netlist_hash;
    lap("content_hash");
    if (!r.netlist_matched && opts.strict_hash)
      throw BundleError(BundleErrorCode::kNetlistHashMismatch,
                        "'" + target.name + "' is not the netlist '" +
                            m.design_name + "' was trained on");

    const auto stats = sim::estimate_by_simulation(
        nl, bundle->stimulus, m.probability_seed, m.probability_cycles);
    r.stats_seconds = lap("golden_sim");
    const ml::Matrix raw = graphir::extract_features(nl, stats);
    if (raw.cols() != m.feature_width)
      throw BundleError(BundleErrorCode::kFeatureWidthMismatch,
                        "extracted " + std::to_string(raw.cols()) +
                            " features, bundle expects " +
                            std::to_string(m.feature_width));
    const ml::Matrix features = bundle->standardizer.transform(raw);
    const graphir::CircuitGraph graph = graphir::build_graph(nl);
    r.sites = fault::fault_sites(nl);
    r.node_names.reserve(nl.num_nodes());
    for (netlist::NodeId id = 0; id < nl.num_nodes(); ++id)
      r.node_names.push_back(nl.node(id).name);
    r.stats_seconds += lap("features");
    stats_ms_->observe(r.stats_seconds * 1e3);
    r.trace_id = opts.trace_id;

    // Every worker shares the bundle's models: inference writes nothing.
    const ml::Matrix out =
        bundle->classifier->infer(graph.normalized_adjacency, features);
    r.proba = ml::class1_probability(out);
    r.predicted = ml::predict_labels(out);
    if (bundle->regressor) {
      r.has_regressor = true;
      const ml::Matrix pred =
          bundle->regressor->infer(graph.normalized_adjacency, features);
      r.score.resize(static_cast<std::size_t>(pred.rows()));
      for (int i = 0; i < pred.rows(); ++i)
        r.score[static_cast<std::size_t>(i)] =
            static_cast<double>(pred(i, 0));
    } else {
      r.score = r.proba;
    }
    r.forward_seconds = lap("forward");
    forward_ms_->observe(r.forward_seconds * 1e3);

    completed_->add();
    request_ms_->observe(
        std::chrono::duration<double, std::milli>(mark - t_request).count());
    return r;
  } catch (...) {
    errors_->add();
    throw;
  }
}

ScoreResult ScoringEngine::score_path(const std::string& bundle_path,
                                      const std::string& target_path,
                                      ScoreOptions opts) {
  return score(bundle_path, load_target(target_path), opts);
}

designs::Design ScoringEngine::load_target(const std::string& target_path) {
  try {
    return load_score_target(target_path);
  } catch (...) {
    requests_->add();
    errors_->add();
    throw;
  }
}

std::future<ScoreResult> ScoringEngine::submit(
    std::string bundle_path, std::string target_path, ScoreOptions opts,
    std::optional<std::chrono::milliseconds> queue_timeout) {
  Job job{std::move(bundle_path), std::move(target_path), opts, {}, {}};
  if (opts.trace_id != 0) job.enqueued = obs::TraceClock::now();
  std::future<ScoreResult> future = job.promise.get_future();
  {
    util::MutexLock lock(queue_mutex_);
    // Explicit predicate loops (not wait lambdas): the thread-safety
    // analysis can only see guarded reads made directly in this scope.
    if (queue_timeout) {
      const auto deadline = std::chrono::steady_clock::now() + *queue_timeout;
      while (!stopping_ && queue_.size() >= config_.queue_capacity) {
        if (queue_not_full_.wait_until(lock.native(), deadline) !=
            std::cv_status::timeout)
          continue;
        if (!stopping_ && queue_.size() >= config_.queue_capacity) {
          submit_timeouts_->add();
          throw EngineError(EngineErrorCode::kQueueTimeout,
                            "queue full (" + std::to_string(queue_.size()) +
                                " jobs queued)");
        }
        break;
      }
    } else {
      while (!stopping_ && queue_.size() >= config_.queue_capacity)
        queue_not_full_.wait(lock.native());
    }
    if (stopping_)
      throw EngineError(EngineErrorCode::kShutdown,
                        "ScoringEngine: submit after shutdown");
    queue_.push_back(std::move(job));
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
  queue_not_empty_.notify_one();
  return future;
}

void ScoringEngine::worker_loop() {
  for (;;) {
    Job job;
    {
      util::MutexLock lock(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_not_empty_.wait(lock.native());
      if (queue_.empty()) return;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    }
    queue_not_full_.notify_one();
    if (config_.before_score_hook)
      config_.before_score_hook(job.target_path);
    run_job(std::move(job));
  }
}

void ScoringEngine::run_job(Job job) {
  // Traced jobs get their queue_wait span the moment a worker claims the
  // job; untraced ones (trace_id 0) cost a single integer compare here.
  obs::RequestTraceCollector* tc =
      job.opts.trace_id != 0 ? config_.traces : nullptr;
  const auto dequeued = obs::TraceClock::now();
  if (tc) tc->span(job.opts.trace_id, "queue_wait", job.enqueued, dequeued);
  try {
    const designs::Design target = load_target(job.target_path);
    if (tc)
      tc->span(job.opts.trace_id, "parse", dequeued, obs::TraceClock::now());
    job.promise.set_value(score(job.bundle_path, target, job.opts));
  } catch (...) {
    job.promise.set_exception(std::current_exception());
  }
}

void ScoringEngine::shutdown() {
  {
    util::MutexLock lock(queue_mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
}

void ScoringEngine::prewarm(const std::string& bundle_path) {
  (void)cache_.get(bundle_path);
}

MetricsSnapshot ScoringEngine::metrics() const {
  MetricsSnapshot s;
  s.requests = requests_->value();
  s.completed = completed_->value();
  s.errors = errors_->value();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.submit_timeouts = submit_timeouts_->value();
  s.queue_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(0, queue_depth_->value()));
  s.queue_high_water = static_cast<std::size_t>(
      std::max<std::int64_t>(0, queue_depth_->high_water()));
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  s.load_seconds = load_ms_->snapshot().sum * 1e-3;
  s.stats_seconds = stats_ms_->snapshot().sum * 1e-3;
  s.forward_seconds = forward_ms_->snapshot().sum * 1e-3;
  s.request_ms = request_ms_->snapshot();
  return s;
}

std::string ScoringEngine::metrics_json() const {
  const MetricsSnapshot s = metrics();
  std::string out = "{";
  out += "\"uptime_seconds\":" + obs::json_number(s.uptime_seconds);
  out += ",\"threads\":" + std::to_string(config_.threads);
  out += ",\"queue_capacity\":" + std::to_string(config_.queue_capacity);
  out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
  out += ",\"queue_high_water\":" + std::to_string(s.queue_high_water);
  out += ",\"requests\":" + std::to_string(s.requests);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"errors\":" + std::to_string(s.errors);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(s.cache_misses);
  out += ",\"submit_timeouts\":" + std::to_string(s.submit_timeouts);
  out += ",\"cache_hit_ratio\":" + obs::json_number(s.cache_hit_ratio());
  out += ",\"request_ms\":" + obs::histogram_json(s.request_ms);
  out += ",\"load_ms\":" + obs::histogram_json(load_ms_->snapshot());
  out += ",\"stats_ms\":" + obs::histogram_json(stats_ms_->snapshot());
  out += ",\"forward_ms\":" + obs::histogram_json(forward_ms_->snapshot());
  out += "}";
  return out;
}

}  // namespace fcrit::serve
