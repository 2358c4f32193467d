// The `fcrit serve` daemon: a line-protocol TCP front end over one
// ScoringEngine and a directory of model bundles.
//
// Wire protocol (one request per line; every response ends with a line
// holding a single "."):
//   SCORE [<bundle>] <netlist-path> [<top-n>] [id=<n>]
//       <bundle> is a file name inside the bundle directory (".fcm"
//       appended when missing) or an absolute/relative path; it may be
//       omitted when the directory holds exactly one bundle. The bundle
//       is resolved and its bytes hashed on every request, so a bundle
//       renamed into the directory is served from the next request on.
//       id=<n> supplies the client's own trace id (nonzero decimal).
//       Replies "OK design=... bundle=... nodes=N matched=0|1 top=K
//       [trace=<id>]" followed by K lines "<node> <proba> <class>
//       <score>", or "BUSY <detail>" when the engine's queue is full.
//   STATS
//       One "OK requests=... completed=... errors=... cache_hits=...
//       cache_misses=... queue_high_water=... threads=..." line.
//   METRICS
//       One line holding a JSON snapshot: the "server" object (uptime and
//       trace-ring occupancy) merged with the engine's metrics (request
//       counters, cache hit ratio, queue depth, latency histograms with
//       p50/p90/p99; see ScoringEngine::metrics_json and
//       docs/OBSERVABILITY.md). It takes no argument.
//   TRACE <id> | TRACE LAST <n>
//       One completed request trace as JSON / the n most recent ones.
//   QUIT
//       Replies "BYE" and closes the connection.
// Any failure replies "ERR <message>".
//
// Framing: one request per '\n'-terminated line (a trailing '\r' is
// stripped), at most kMaxLineBytes long; blank lines are ignored. A
// longer line is answered with ERR and the connection is closed: nothing
// a client sends can grow the buffer without bound.
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
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/engine.hpp"
#include "src/util/thread_annotations.hpp"

namespace fcrit::serve {

/// Longest request line accepted, '\n' excluded. A SCORE line is two
/// paths and two integers; anything near this size is not a request.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// A parsed SCORE request line: SCORE [<bundle>] <netlist-path> [<top-n>]
/// [id=<n>], where a trailing integer is the top-n, a lone path-like
/// argument means "the directory's only bundle" (empty bundle_token), and
/// an id= token anywhere supplies the client's own decimal trace id.
struct ScoreRequest {
  std::string bundle_token;  // empty = sole bundle in the directory
  std::string target;
  int top = 10;
  std::uint64_t trace_id = 0;  // client-supplied id= token; 0 = none
};

/// Parse the tokens after the SCORE verb; throws std::runtime_error with
/// a usage message on malformed input.
ScoreRequest parse_score_request(const std::vector<std::string>& args);

/// Map a SCORE bundle token to a bundle file: a token containing '/' is a
/// path, anything else names a file in `bundle_dir` (".fcm" appended when
/// missing); an empty token selects the directory's only *.fcm. Throws
/// std::runtime_error when nothing (or more than one thing) matches.
std::string resolve_bundle_token(const std::string& bundle_dir,
                                 const std::string& token);

/// The "OK design=... top=K" header plus K ranked site lines and the
/// protocol terminator.
std::string format_score_response(const ScoreResult& result, int top);

struct ServerConfig {
  std::string bundle_dir;
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 7333;
};

class Server {
 public:
  Server(ScoringEngine& engine, ServerConfig config);
  /// Drains connections (stop()) before engine_ and config_ go away:
  /// handle_line runs on connection threads.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

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
  std::string handle_line(const std::string& line);

 private:
  /// METRICS: a "server" object (uptime, trace-ring occupancy) spliced
  /// into the front of the engine's metrics_json(), framed.
  std::string metrics_response() const;

  /// TRACE <id> / TRACE LAST <n> against the engine's collector.
  /// `args` are the tokens after the verb.
  std::string trace_response(const std::vector<std::string>& args) const;

  void accept_loop();
  void connection_loop(int fd);
  /// Frame and answer requests on `fd` until the peer leaves, QUIT, an
  /// oversized line, or stop().
  void serve_connection(int fd);

  ScoringEngine& engine_;
  ServerConfig config_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
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
