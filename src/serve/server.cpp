#include "src/serve/server.hpp"

#include <chrono>
#include <filesystem>
#include <future>
#include <sstream>
#include <stdexcept>

#include "src/obs/request_trace.hpp"
#include "src/util/text.hpp"

namespace fcrit::serve {

ScoreRequest parse_score_request(const std::vector<std::string>& args,
                                 int default_top) {
  // SCORE [<bundle>] <netlist-path> [<top-n>] [id=<n>]: a trailing
  // integer is the top-n; one path-like argument means "the directory's
  // only bundle"; an id= token anywhere is the client's own trace id.
  std::vector<std::string> rest;
  ScoreRequest req;
  req.top = default_top;
  for (const std::string& arg : args) {
    if (arg.rfind("id=", 0) == 0) {
      const auto id = parse_decimal_id(arg.substr(3));
      if (!id)
        throw std::runtime_error("bad trace id '" + arg +
                                 "' (want id=<nonzero decimal>)");
      req.trace_id = *id;
      continue;
    }
    rest.push_back(arg);
  }
  if (rest.size() >= 2) {
    std::size_t parsed = 0;
    try {
      const int n = std::stoi(rest.back(), &parsed);
      if (parsed == rest.back().size()) {
        req.top = n;
        rest.pop_back();
      }
    } catch (const std::exception&) {
    }
  }
  if (rest.empty() || rest.size() > 2)
    throw std::runtime_error("usage: SCORE [<bundle>] <netlist-path> [<top-n>]");
  if (rest.size() == 2) {
    req.bundle_token = rest[0];
    req.target = rest[1];
  } else {
    req.target = rest[0];
  }
  return req;
}

std::string resolve_bundle_token(const std::string& bundle_dir,
                                 const std::string& token) {
  namespace fs = std::filesystem;
  if (token.empty()) {
    std::vector<std::string> bundles;
    for (const auto& entry : fs::directory_iterator(bundle_dir))
      if (entry.is_regular_file() && entry.path().extension() == ".fcm")
        bundles.push_back(entry.path().string());
    if (bundles.size() != 1)
      throw std::runtime_error(
          std::to_string(bundles.size()) +
          " bundles in directory; name one: SCORE <bundle> <path>");
    return bundles[0];
  }
  std::vector<std::string> candidates;
  if (token.find('/') != std::string::npos) {
    candidates = {token};
  } else {
    candidates.push_back(bundle_dir + "/" + token);
    if (!util::ends_with(token, ".fcm"))
      candidates.push_back(bundle_dir + "/" + token + ".fcm");
  }
  for (const auto& path : candidates)
    if (fs::is_regular_file(path)) return path;
  throw std::runtime_error("no bundle '" + token + "' in " + bundle_dir);
}

std::string format_score_response(const ScoreResult& r, int top) {
  const auto ranked = top_sites(r, top);
  std::ostringstream os;
  os.precision(6);
  os << "OK design=" << r.target_name << " bundle=" << r.bundle_design
     << " nodes=" << r.node_names.size()
     << " matched=" << (r.netlist_matched ? 1 : 0)
     << " top=" << ranked.size();
  if (r.trace_id != 0) os << " trace=" << r.trace_id;
  os << "\n";
  for (const auto id : ranked)
    os << r.node_names[id] << " " << r.proba[id] << " "
       << r.predicted[id] << " " << r.score[id] << "\n";
  os << ".\n";
  return os.str();
}

Server::Server(ScoringEngine& engine, ServerConfig config)
    : LineServer(config.port), engine_(engine), config_(std::move(config)) {
  // The TRACE verb and METRICS trace_ring field read the engine's
  // collector when one was wired into EngineConfig (the CLI does both).
  set_trace_collector(engine_.trace_collector());
}

Server::~Server() {
  // Drain connections before engine_/config_ go away (the base dtor would
  // be too late: handle_line runs on connection threads).
  stop();
}

std::string Server::handle_line(const std::string& line) {
  const std::vector<std::string> tokens = util::split_ws(line);
  if (tokens.empty()) return error_response("empty request");
  const std::string& verb = tokens[0];

  if (verb == "QUIT") return "BYE\n.\n";

  if (verb == "METRICS") {
    if (tokens.size() > 1 && tokens[1] == "PROM")
      return prom_response(engine_.metrics_registry());
    return metrics_response(engine_.metrics_json());
  }

  if (verb == "TRACE")
    return trace_response({tokens.begin() + 1, tokens.end()});

  if (verb == "STATS") {
    const MetricsSnapshot m = engine_.metrics();
    std::ostringstream os;
    os << "OK requests=" << m.requests << " completed=" << m.completed
       << " errors=" << m.errors << " cache_hits=" << m.cache_hits
       << " cache_misses=" << m.cache_misses
       << " queue_high_water=" << m.queue_high_water
       << " threads=" << engine_.config().threads << "\n.\n";
    return os.str();
  }

  if (verb == "SCORE") {
    obs::RequestTraceCollector* tc = trace_collector();
    std::uint64_t trace_id = 0;
    // Held until the reply is built. A failed job's exception is freed by
    // whichever of this thread and the worker lets go of the job's state
    // last; future::get() would let go before the catch below reads the
    // message, leaving that ordering to reference counts inside libstdc++,
    // which ThreadSanitizer cannot see.
    std::shared_future<ScoreResult> pending;
    try {
      const ScoreRequest req = parse_score_request(
          {tokens.begin() + 1, tokens.end()}, config_.default_top);
      // Resolved per request, and the bundle cache is keyed by content:
      // a bundle added or renamed into the directory is served next time.
      const std::string bundle_path =
          resolve_bundle_token(config_.bundle_dir, req.bundle_token);
      ScoreOptions opts;
      if (tc)
        trace_id = opts.trace_id =
            tc->begin(bundle_path, req.target, req.trace_id);
      // Zero queue deadline: a full queue sheds (BUSY) instead of parking
      // this connection behind the backlog.
      pending = engine_
                    .submit(bundle_path, req.target, opts,
                            std::chrono::milliseconds(0))
                    .share();
      const ScoreResult& r = pending.get();
      if (tc) tc->finish(trace_id, "ok");
      return format_score_response(r, req.top);
    } catch (const EngineError& e) {
      const bool busy = e.code() == EngineErrorCode::kQueueTimeout;
      if (tc) tc->finish(trace_id, busy ? "shed" : "error", e.what());
      return busy ? "BUSY " + std::string(e.what()) + "\n.\n"
                  : error_response(e.what());
    } catch (const std::exception& e) {
      if (tc) tc->finish(trace_id, "error", e.what());
      return error_response(e.what());
    }
  }

  return error_response("unknown command '" + verb +
                        "' (SCORE, STATS, METRICS, TRACE, QUIT)");
}

}  // namespace fcrit::serve
