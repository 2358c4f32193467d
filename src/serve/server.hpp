// The `fcrit serve` daemon: a line-protocol front end (src/serve/
// line_server.hpp) over one ScoringEngine and a directory of model
// bundles.
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
//       One line holding a JSON snapshot: the "server" object
//       (uptime, trace-ring occupancy, exporter lag — serve::LineServer)
//       merged with the engine's registry snapshot (request counters,
//       cache hit ratio, queue depth, latency histograms with p50/p90/p99;
//       see ScoringEngine::metrics_json and docs/OBSERVABILITY.md).
//   METRICS PROM
//       The same registry in Prometheus text exposition format.
//   TRACE <id> | TRACE LAST <n>
//       One completed request trace as JSON / the n most recent ones.
//   QUIT
//       Replies "BYE" and closes the connection.
// Any failure replies "ERR <message>"; a line longer than kMaxLineBytes
// also closes the connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/engine.hpp"
#include "src/serve/line_server.hpp"

namespace fcrit::serve {

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
ScoreRequest parse_score_request(const std::vector<std::string>& args,
                                 int default_top);

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
  int default_top = 10;
};

class Server : public LineServer {
 public:
  Server(ScoringEngine& engine, ServerConfig config);
  ~Server() override;

  std::string handle_line(const std::string& line) override;

 private:
  ScoringEngine& engine_;
  ServerConfig config_;
};

}  // namespace fcrit::serve
