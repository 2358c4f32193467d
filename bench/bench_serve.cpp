// Closed-loop load generator for `fcrit serve`: C clients per bundle over
// the four built-in designs, each sending its next SCORE line only after
// the previous reply, straight into serve::Server::handle_line (the
// daemon's request path minus the socket). Legs:
//
//   distinct@2t    every request names a different target file (a unique
//                  path and unique bytes over the same four netlists), on
//                  a 2-worker engine
//   distinct@8t    the same load on 8 workers
//   same@2t        every client of a bundle sends that bundle's one file,
//                  2 workers: the load a duplicate-collapsing server would
//                  shortcut. Without collapse it should match distinct@2t.
//   distinct@2t-trace / distinct@2t-notrace
//                  distinct@2t with the request-trace collector enabled vs
//                  disabled: the tracing-overhead A/B (<= 2% p99,
//                  docs/OBSERVABILITY.md)
//
//   bench_serve [--clients C] [--requests R]
//
// After one untimed warm-up run, every leg runs kRuns (5) times; odd
// runs take the legs in reverse order, so host drift lands on every leg
// alike. Each leg lands in
// BENCH_serve.json as phases whose suffix names the stat carried in the
// Recorder schema's wall_ms field: "<leg>.req_per_s" (median over runs),
// "<leg>.req_per_s_q1" / "_q3" (its quartiles), and "<leg>.p50_ms",
// "<leg>.p90_ms", "<leg>.p99_ms" (pooled over every request of every run).
// Any ERR or BUSY reply fails the bench.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "src/designs/designs.hpp"
#include "src/graphir/features.hpp"
#include "src/ml/gcn.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/obs/request_trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace fcrit;

constexpr int kRuns = 5;  // timed runs per leg

struct Workload {
  std::string dir;
  std::vector<std::string> designs;  // bundle tokens: <dir>/<design>.fcm
  std::vector<std::string> same;     // one target file per design
  /// Per design, one file per (client, request): the distinct legs never
  /// send one file twice within a run.
  std::vector<std::vector<std::string>> distinct;
};

// Random-weight bundles over the real built-in designs: the full serving
// path runs (parse, lint, hash, stats sim, features, forward) without
// paying for training.
Workload build_workload(int clients, int requests) {
  Workload w;
  w.dir = (std::filesystem::temp_directory_path() / "fcrit_bench_serve")
              .string();
  std::filesystem::remove_all(w.dir);
  std::filesystem::create_directories(w.dir);
  std::uint64_t seed = 1;
  // The four small built-in designs; ee_zonal is far larger and would
  // dominate every leg.
  for (const std::string name :
       {"sdram_ctrl", "or1200_if", "or1200_icfsm", "or1200_genpc"}) {
    const designs::Design d = designs::build_design(name);
    serve::ModelBundle b;
    b.manifest.design_name = d.name;
    b.manifest.netlist_hash = serve::netlist_content_hash(d.netlist);
    b.manifest.feature_width = graphir::kNumBaseFeatures;
    b.manifest.feature_names = graphir::base_feature_names();
    b.manifest.probability_cycles = 32;
    b.manifest.probability_seed = 5;
    b.stimulus = d.stimulus;
    b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
    b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
    ml::GcnConfig cc = ml::GcnConfig::classifier();
    cc.hidden = {32, 32};
    cc.seed = seed++;
    b.classifier =
        std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, cc);
    serve::save_bundle_file(b, w.dir + "/" + name + ".fcm");
    w.designs.push_back(name);

    const std::string verilog = netlist::to_verilog(d.netlist);
    w.same.push_back(w.dir + "/" + name + ".v");
    std::ofstream(w.same.back()) << verilog;
    // Same netlist, distinct path and bytes: per-request work equals the
    // same leg's, so the two legs differ only in what a server could share
    // between identical requests.
    std::vector<std::string> files;
    for (int i = 0; i < clients * requests; ++i) {
      files.push_back(w.dir + "/" + name + ".t" + std::to_string(i) + ".v");
      std::ofstream(files.back()) << verilog << "// request " << i << "\n";
    }
    w.distinct.push_back(std::move(files));
  }
  return w;
}

struct Leg {
  std::string name;
  int threads = 2;
  bool distinct = true;
  enum class Tracing { kNone, kOn, kOff } tracing = Tracing::kNone;
};

struct RunStats {
  double req_per_s = 0.0;
  std::vector<double> latencies_ms;
  std::size_t failures = 0;  // ERR or BUSY replies
};

/// One closed-loop run of `leg` against a fresh engine whose bundle cache
/// is warm: `clients` threads per design, `requests` SCOREs each.
RunStats run_leg(const Workload& w, const Leg& leg, int clients,
                 int requests) {
  obs::RequestTraceCollector traces(512);
  traces.set_enabled(leg.tracing == Leg::Tracing::kOn);
  serve::EngineConfig ec;
  ec.threads = leg.threads;
  if (leg.tracing != Leg::Tracing::kNone) ec.traces = &traces;
  serve::ScoringEngine engine(ec);
  for (const auto& design : w.designs)
    engine.prewarm(w.dir + "/" + design + ".fcm");
  serve::Server server(engine, {.bundle_dir = w.dir, .port = 0});

  std::mutex mu;
  RunStats stats;
  std::vector<std::thread> threads;
  util::Timer wall;
  for (std::size_t b = 0; b < w.designs.size(); ++b) {
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, b, c] {
        std::vector<double> mine;
        std::size_t failures = 0;
        for (int r = 0; r < requests; ++r) {
          const std::string& target =
              leg.distinct
                  ? w.distinct[b][static_cast<std::size_t>(c * requests + r)]
                  : w.same[b];
          util::Timer t;
          const std::string reply =
              server.handle_line("SCORE " + w.designs[b] + " " + target);
          if (reply.rfind("OK", 0) == 0)
            mine.push_back(t.millis());
          else
            ++failures;
        }
        std::lock_guard<std::mutex> lock(mu);
        stats.latencies_ms.insert(stats.latencies_ms.end(), mine.begin(),
                                  mine.end());
        stats.failures += failures;
      });
    }
  }
  for (auto& t : threads) t.join();
  stats.req_per_s = static_cast<double>(stats.latencies_ms.size()) /
                    (wall.millis() / 1000.0);
  return stats;
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(idx == 0 ? 0 : idx - 1, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 4;    // per bundle: 4 bundles x 4 = 16 concurrent clients
  int requests = 36;  // per client and run
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0) clients = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--requests") == 0) requests = std::atoi(argv[i + 1]);
  }
  clients = std::max(1, clients);
  requests = std::max(1, requests);

  bench::print_header("fcrit serve: closed-loop load (" +
                      std::to_string(clients) + " clients/bundle x " +
                      std::to_string(requests) + " requests, " +
                      std::to_string(kRuns) + " runs per leg)");
  bench::Recorder rec("serve");
  const Workload w = build_workload(clients, requests);
  const std::vector<Leg> legs = {
      {"distinct@2t", 2, true, Leg::Tracing::kNone},
      {"distinct@8t", 8, true, Leg::Tracing::kNone},
      {"same@2t", 2, false, Leg::Tracing::kNone},
      {"distinct@2t-trace", 2, true, Leg::Tracing::kOn},
      {"distinct@2t-notrace", 2, true, Leg::Tracing::kOff},
  };

  std::vector<std::vector<double>> rates(legs.size());
  std::vector<std::vector<double>> latencies(legs.size());
  // One untimed run first: the process's first requests pay one-time
  // costs (allocator arenas, page faults, file cache) no later run sees.
  std::size_t failures = run_leg(w, legs.front(), clients, requests).failures;
  for (int run = 0; run < kRuns; ++run) {
    for (std::size_t k = 0; k < legs.size(); ++k) {
      const std::size_t i = run % 2 == 0 ? k : legs.size() - 1 - k;
      RunStats s = run_leg(w, legs[i], clients, requests);
      rates[i].push_back(s.req_per_s);
      latencies[i].insert(latencies[i].end(), s.latencies_ms.begin(),
                          s.latencies_ms.end());
      failures += s.failures;
    }
  }

  for (std::size_t i = 0; i < legs.size(); ++i) {
    std::sort(rates[i].begin(), rates[i].end());
    std::sort(latencies[i].begin(), latencies[i].end());
    const double median = percentile(rates[i], 0.50);
    const double q1 = percentile(rates[i], 0.25);
    const double q3 = percentile(rates[i], 0.75);
    const double p50 = percentile(latencies[i], 0.50);
    const double p90 = percentile(latencies[i], 0.90);
    const double p99 = percentile(latencies[i], 0.99);
    std::printf("%-20s %7.1f req/s [%6.1f, %6.1f]   p50 %7.2f ms   p90 %7.2f "
                "ms   p99 %7.2f ms   (%zu requests)\n",
                legs[i].name.c_str(), median, q1, q3, p50, p90, p99,
                latencies[i].size());
    rec.phase(legs[i].name + ".req_per_s", median);
    rec.phase(legs[i].name + ".req_per_s_q1", q1);
    rec.phase(legs[i].name + ".req_per_s_q3", q3);
    rec.phase(legs[i].name + ".p50_ms", p50);
    rec.phase(legs[i].name + ".p90_ms", p90);
    rec.phase(legs[i].name + ".p99_ms", p99);
  }
  rec.write();
  std::filesystem::remove_all(w.dir);
  if (failures > 0) {
    std::fprintf(stderr, "bench_serve: %zu requests failed\n", failures);
    return 1;
  }
  return 0;
}
