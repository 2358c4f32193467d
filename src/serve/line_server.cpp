#include "src/serve/line_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/obs/exporter.hpp"
#include "src/obs/json.hpp"
#include "src/obs/log.hpp"
#include "src/obs/prom.hpp"
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

}  // namespace

std::string error_response(const std::string& message) {
  return "ERR " + message + "\n.\n";
}

std::optional<std::uint64_t> parse_decimal_id(const std::string& text) {
  // from_chars on an unsigned type takes digits only (no sign, no
  // whitespace) and reports overflow instead of clamping like strtoull.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value == 0) return std::nullopt;
  return value;
}

std::string LineServer::metrics_response(const std::string& payload) const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::string server = "{\"uptime_seconds\":" + obs::json_number(uptime);
  if (traces_) {
    server += ",\"trace_ring\":{\"enabled\":";
    server += traces_->enabled() ? "true" : "false";
    server += ",\"occupancy\":" + std::to_string(traces_->ring_size());
    server += ",\"capacity\":" + std::to_string(traces_->ring_capacity());
    server += ",\"active\":" + std::to_string(traces_->active_size());
    server += ",\"dropped\":" + std::to_string(traces_->dropped());
    server += "}";
  } else {
    server += ",\"trace_ring\":null";
  }
  if (exporter_) {
    const obs::TelemetryExporter::Status st = exporter_->status();
    server += ",\"exporter\":{\"running\":";
    server += st.running ? "true" : "false";
    server +=
        ",\"interval_seconds\":" + obs::json_number(st.interval_seconds);
    server += ",\"snapshots\":" + std::to_string(st.snapshots);
    server += ",\"last_lag_ms\":" + obs::json_number(st.last_lag_ms);
    server += "}";
  } else {
    server += ",\"exporter\":null";
  }
  server += "}";
  if (payload.size() < 2 || payload.front() != '{' || payload.back() != '}')
    return error_response("internal: METRICS payload is not a JSON object");
  std::string out = "{\"server\":" + server;
  if (payload != "{}") out += "," + payload.substr(1, payload.size() - 2);
  out += "}\n.\n";
  return out;
}

std::string LineServer::prom_response(const obs::Registry& registry) const {
  return obs::to_prometheus(registry) + ".\n";
}

std::string LineServer::trace_response(
    const std::vector<std::string>& args) const {
  if (!traces_) return error_response("tracing not available");
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
    const std::vector<obs::RequestTrace> traces = traces_->last(n);
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
  const auto trace = traces_->find(*id);
  if (!trace) {
    return error_response(
        traces_->enabled()
            ? "trace " + args[0] + " not found (completed and evicted, "
                  "still in flight, or never traced)"
            : "tracing disabled");
  }
  return obs::request_trace_json(*trace) + "\n.\n";
}

LineServer::~LineServer() {
  // Subclass state is already gone by the time this runs, so a subclass
  // whose handle_line touches members MUST stop() in its own destructor;
  // this is only the backstop for the base-alone case.
  stop();
}

void LineServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(requested_port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind 127.0.0.1:" +
                             std::to_string(requested_port_) + ": " + reason);
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

void LineServer::accept_loop() {
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

void LineServer::connection_loop(int fd) {
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

void LineServer::serve_connection(int fd) {
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
    if (should_close(verb) || stopping_.load()) return;
  }
}

void LineServer::stop() {
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
