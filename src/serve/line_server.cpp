#include "src/serve/line_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/obs/exporter.hpp"
#include "src/obs/json.hpp"
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

}  // namespace

std::string error_response(const std::string& message) {
  return "ERR " + message + "\n.\n";
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
  // Splice into the subclass payload so both daemons expose the common
  // fields at the same place without each re-assembling them.
  if (payload.size() < 2 || payload.front() != '{' || payload.back() != '}')
    return error_response("internal: METRICS payload is not a JSON object");
  std::string out = "{\"server\":" + server;
  if (payload != "{}") out += "," + payload.substr(1, payload.size() - 2);
  out += "}\n.\n";
  return out;
}

std::string LineServer::prom_response(
    const std::vector<obs::PromSource>& sources) const {
  return obs::to_prometheus(sources) + ".\n";
}

std::string LineServer::trace_response(
    const std::vector<std::string>& args) const {
  if (!traces_) return error_response("tracing not available");
  if (args.empty()) return error_response("usage: TRACE <id> | TRACE LAST <n>");
  if (args[0] == "LAST" || args[0] == "last") {
    std::size_t n = 10;
    if (args.size() > 1) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(args[1].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v == 0)
        return error_response("TRACE LAST: bad count '" + args[1] + "'");
      n = static_cast<std::size_t>(v);
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
  char* end = nullptr;
  const unsigned long long id = std::strtoull(args[0].c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || id == 0)
    return error_response("TRACE: bad trace id '" + args[0] + "'");
  const auto trace = traces_->find(static_cast<std::uint64_t>(id));
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
    conn_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void LineServer::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // peer closed, or stop() shut our read side down
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::trim(line).empty()) continue;
    const std::string verb = util::split_ws(line)[0];
    send_all(fd, handle_line(line));
    if (should_close(verb) || stopping_.load()) open = false;
  }
  {
    util::MutexLock lock(conn_mutex_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
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
  {
    // Wake connections parked in recv(); their writes still complete, so
    // in-flight requests are answered before the threads exit.
    util::MutexLock lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  running_.store(false);
}

}  // namespace fcrit::serve
