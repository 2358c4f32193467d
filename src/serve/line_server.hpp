// Line-protocol TCP front end: bind/listen/accept plumbing,
// thread-per-connection framing and graceful drain, with the actual
// protocol supplied by a subclass's handle_line() (serve::Server).
//
// Framing contract: one request per '\n'-terminated line (a trailing
// '\r' is stripped), at most kMaxLineBytes long; blank lines are ignored,
// every response already carries its own ".\n" terminator, and a
// handle_line() returning after "QUIT" closes that connection
// (should_close()). A longer line is answered with ERR and the connection
// is closed: nothing a client sends can grow the buffer without bound.
//
// Each connection runs on its own thread, and a finished connection's
// thread is joined by the next one to finish (or by stop()), so the
// threads held at any time are the live connections plus one.
//
// stop() is a graceful shutdown: the listening socket closes first, then
// every connection's read side is shut down — requests already in flight
// still compute and write their responses before the threads are joined.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/util/thread_annotations.hpp"

namespace fcrit::obs {
class Registry;
class RequestTraceCollector;
class TelemetryExporter;
}  // namespace fcrit::obs

namespace fcrit::serve {

/// Longest request line accepted, '\n' excluded. A SCORE line is two
/// paths and two integers; anything near this size is not a request.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// "ERR <message>" plus the protocol terminator.
std::string error_response(const std::string& message);

/// A protocol id or count: a nonempty string of decimal digits whose
/// value is nonzero and fits in 64 bits. No sign, space or suffix.
/// Shared by SCORE's id= token and the TRACE <id> / TRACE LAST <n> verbs.
std::optional<std::uint64_t> parse_decimal_id(const std::string& text);

class LineServer {
 public:
  /// `port` on 127.0.0.1; 0 picks an ephemeral port (see port()).
  explicit LineServer(std::uint16_t port) : requested_port_(port) {}
  virtual ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Bind, listen and start the acceptor thread; throws std::runtime_error
  /// on socket failure.
  void start();

  /// The actually-bound port (resolves port 0).
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Graceful shutdown: stop accepting, drain in-flight requests, join.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Process one protocol line (without the newline) into a full response
  /// (terminator included). Public so tests can drive the protocol
  /// without sockets.
  virtual std::string handle_line(const std::string& line) = 0;

  /// Wire the observability surfaces the shared verbs read. Neither is
  /// owned; pass nullptr to detach. The collector backs the TRACE verb
  /// and the trace_ring field of METRICS, the exporter the exporter
  /// field. Call before start().
  void set_trace_collector(obs::RequestTraceCollector* traces) {
    traces_ = traces;
  }
  void set_exporter(obs::TelemetryExporter* exporter) { exporter_ = exporter; }
  obs::RequestTraceCollector* trace_collector() const { return traces_; }

 protected:
  /// True when the request line the connection just served should end it
  /// (the base closes after QUIT; subclasses may extend).
  virtual bool should_close(const std::string& verb) const {
    return verb == "QUIT";
  }

  /// The METRICS serializer: splices a "server" object (uptime,
  /// trace-ring occupancy, exporter lag) into the front of the subclass's
  /// JSON payload object, then frames it. `payload` must be a JSON object
  /// ("{...}").
  std::string metrics_response(const std::string& payload) const;

  /// METRICS PROM: the registry rendered in Prometheus text exposition
  /// format, framed.
  std::string prom_response(const obs::Registry& registry) const;

  /// TRACE <id> / TRACE LAST <n> against the attached collector.
  /// `args` are the tokens after the verb.
  std::string trace_response(const std::vector<std::string>& args) const;

 private:
  void accept_loop();
  void connection_loop(int fd);
  /// Frame and answer requests on `fd` until the peer leaves, QUIT, an
  /// oversized line, or stop().
  void serve_connection(int fd);

  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  obs::RequestTraceCollector* traces_ = nullptr;
  obs::TelemetryExporter* exporter_ = nullptr;
  std::uint16_t requested_port_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  util::Mutex conn_mutex_;
  /// Live connections by socket fd (unique while the entry exists: a
  /// connection leaves the table before it closes its fd).
  std::unordered_map<int, std::thread> conns_ GUARDED_BY(conn_mutex_);
  /// The most recently finished connection's thread, not yet joined.
  std::thread finished_ GUARDED_BY(conn_mutex_);
  std::condition_variable conn_closed_;  // signalled as conns_ shrinks
  std::thread acceptor_;  // declared last: it uses every member above
};

}  // namespace fcrit::serve
