#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/obs/json.hpp"
#include "src/obs/log.hpp"
#include "src/obs/request_trace.hpp"
#include "src/util/text.hpp"

namespace fcrit::serve {

namespace {

void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; nothing sensible to do
    sent += static_cast<std::size_t>(n);
  }
}

// Reads and drops what the peer still sends, until its EOF or a quiet
// second, for two seconds at most. close() on a socket with unread input
// answers with an RST, which can destroy a reply still in flight; an
// emptied buffer closes with a FIN. stop()'s SHUT_RD ends the wait at once.
void discard_input(int fd) {
  timeval timeout{};
  timeout.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  char chunk[4096];
  while (std::chrono::steady_clock::now() < deadline &&
         ::recv(fd, chunk, sizeof(chunk), 0) > 0) {
  }
}

/// "ERR <message>" plus the protocol terminator.
std::string error_response(const std::string& message) {
  return "ERR " + message + "\n.\n";
}

/// A protocol id or count: a nonempty string of decimal digits whose
/// value is nonzero and fits in 64 bits. No sign, space or suffix.
/// Shared by SCORE's id= token and the TRACE <id> / TRACE LAST <n> verbs.
std::optional<std::uint64_t> parse_decimal_id(const std::string& text) {
  // from_chars on an unsigned type takes digits only (no sign, no
  // whitespace) and reports overflow instead of clamping like strtoull.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value == 0) return std::nullopt;
  return value;
}

}  // namespace

ScoreRequest parse_score_request(const std::vector<std::string>& args) {
  // SCORE [<bundle>] <netlist-path> [<top-n>] [id=<n>]: a trailing
  // integer is the top-n; one path-like argument means "the directory's
  // only bundle"; an id= token anywhere is the client's own trace id.
  std::vector<std::string> rest;
  ScoreRequest req;
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
    : engine_(engine), config_(std::move(config)) {}

Server::~Server() { stop(); }

std::string Server::metrics_response() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::string out = "{\"server\":{\"uptime_seconds\":";
  out += obs::json_number(uptime);
  if (const obs::RequestTraceCollector* tc = engine_.trace_collector()) {
    out += ",\"trace_ring\":{\"enabled\":";
    out += tc->enabled() ? "true" : "false";
    out += ",\"occupancy\":" + std::to_string(tc->ring_size());
    out += ",\"capacity\":" + std::to_string(tc->ring_capacity());
    out += ",\"active\":" + std::to_string(tc->active_size());
    out += ",\"dropped\":" + std::to_string(tc->dropped());
    out += "}";
  } else {
    out += ",\"trace_ring\":null";
  }
  // metrics_json() is one JSON object: its members follow "server".
  out += "},";
  out += engine_.metrics_json().substr(1);
  out += "\n.\n";
  return out;
}

std::string Server::trace_response(
    const std::vector<std::string>& args) const {
  const obs::RequestTraceCollector* tc = engine_.trace_collector();
  if (!tc) return error_response("tracing not available");
  if (args.empty()) return error_response("usage: TRACE <id> | TRACE LAST <n>");
  if (args[0] == "LAST" || args[0] == "last") {
    std::size_t n = 10;
    if (args.size() > 1) {
      const auto v = parse_decimal_id(args[1]);
      if (!v)
        return error_response("TRACE LAST: bad count '" + args[1] +
                              "' (want a nonzero decimal)");
      n = static_cast<std::size_t>(*v);
    }
    const std::vector<obs::RequestTrace> traces = tc->last(n);
    std::string out = "{\"count\":" + std::to_string(traces.size());
    out += ",\"traces\":[";
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i != 0) out += ",";
      out += obs::request_trace_json(traces[i]);
    }
    out += "]}\n.\n";
    return out;
  }
  const auto id = parse_decimal_id(args[0]);
  if (!id)
    return error_response("TRACE: bad trace id '" + args[0] +
                          "' (want a nonzero decimal)");
  const auto trace = tc->find(*id);
  if (!trace) {
    return error_response(
        tc->enabled()
            ? "trace " + args[0] + " not found (completed and evicted, "
                  "still in flight, or never traced)"
            : "tracing disabled");
  }
  return obs::request_trace_json(*trace) + "\n.\n";
}

std::string Server::handle_line(const std::string& line) {
  const std::vector<std::string> tokens = util::split_ws(line);
  if (tokens.empty()) return error_response("empty request");
  const std::string& verb = tokens[0];

  if (verb == "QUIT") return "BYE\n.\n";

  if (verb == "METRICS")
    return tokens.size() == 1 ? metrics_response()
                              : error_response("usage: METRICS");

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
    obs::RequestTraceCollector* tc = engine_.trace_collector();
    std::uint64_t trace_id = 0;
    // Held until the reply is built. A failed job's exception is freed by
    // whichever of this thread and the worker lets go of the job's state
    // last; future::get() would let go before the catch below reads the
    // message, leaving that ordering to reference counts inside libstdc++,
    // which ThreadSanitizer cannot see.
    std::shared_future<ScoreResult> pending;
    try {
      const ScoreRequest req = parse_score_request(
          {tokens.begin() + 1, tokens.end()});
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

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind 127.0.0.1:" +
                             std::to_string(config_.port) + ": " + reason);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen: " + reason);
  }
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listening socket gone
    }
    util::MutexLock lock(conn_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // The new thread looks its entry up under conn_mutex_, which is held
    // until the entry owns the thread.
    try {
      conns_[fd] = std::thread([this, fd] { connection_loop(fd); });
    } catch (const std::exception& e) {  // std::system_error: no thread
      conns_.erase(fd);
      ::close(fd);
      obs::logf(obs::LogLevel::kWarn,
                "dropping a connection: cannot start its thread (%s)",
                e.what());
    }
  }
}

void Server::connection_loop(int fd) {
  serve_connection(fd);
  std::thread previous;
  {
    util::MutexLock lock(conn_mutex_);
    // Leave the table before closing the fd: stop() shuts down only fds
    // still in it, so it never touches a closed (possibly reused) one.
    const auto it = conns_.find(fd);
    previous = std::exchange(finished_, std::move(it->second));
    conns_.erase(it);
  }
  conn_closed_.notify_all();
  ::close(fd);
  // `previous` is past its request loop (it only closes its fd and joins
  // its own predecessor), so this join is brief. Whoever joins this
  // thread, the next finisher or stop(), thereby waits for every earlier
  // connection thread as well.
  if (previous.joinable()) previous.join();
}

void Server::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if ((newline == std::string::npos ? buffer.size() : newline) >
        kMaxLineBytes) {
      send_all(fd, error_response("request line exceeds " +
                                  std::to_string(kMaxLineBytes) + " bytes"));
      ::shutdown(fd, SHUT_WR);  // the reply, then EOF
      discard_input(fd);
      return;
    }
    if (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // peer closed, or stop() shut our read side down
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::trim(line).empty()) continue;
    const std::string verb = util::split_ws(line)[0];
    send_all(fd, handle_line(line));
    if (verb == "QUIT" || stopping_.load()) return;
  }
}

void Server::stop() {
  if (!running_.load() && listen_fd_ < 0) return;
  stopping_.store(true);
  // shutdown() wakes the acceptor's accept(); the fd is closed only after
  // the join, so the acceptor never reads listen_fd_ while it is reset or
  // calls accept() on a closed (possibly reused) descriptor.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::thread last;
  {
    // Wake connections parked in recv(); their writes still complete, so
    // in-flight requests are answered before the threads exit.
    util::MutexLock lock(conn_mutex_);
    for (const auto& [fd, thread] : conns_) ::shutdown(fd, SHUT_RD);
    while (!conns_.empty()) conn_closed_.wait(lock.native());
    last = std::move(finished_);
  }
  if (last.joinable()) last.join();
  running_.store(false);
}

}  // namespace fcrit::serve
