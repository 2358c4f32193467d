// End-to-end benchmark driver for fcrit: three workloads over the two hot
// paths (train once on a design, label a generated design, score many
// netlists), driven only through the library's public entry points.
//
//   fcrit_perfbench --workload <train_ee_zonal|label_gen|score_mixed>
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//                   [--git-rev REV] [--src-digest HEX]
//
// Every workload computes on one thread pinned to one CPU. An operation's
// end-to-end figure is its cost: the process CPU time it takes, scaled to
// a nominal host speed by a fixed reference computation timed between
// operations (HostSpeed). On a shared host that removes the intervals
// other tenants held the CPU and most of the drift in how fast they let
// it run; wall times are in the full report too. Untraced runs
// (--trace 0) time whole operations; traced runs (--trace 1) wrap every
// call the benchmark makes into a layer's public function in a
// benchmark-side span and attribute the operation's wall time to layers.
// Either way stdout ends with two lines: a full report (every metric with
// its samples, median, spread and direction, plus run metadata), then the
// result object {"correct","attempted","failed","metrics"}. Correctness
// gates run outside the timed regions; each mismatch counts as a failed
// operation.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/check/differential.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/fault/dataset.hpp"
#include "src/fault/fault.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/graphir/features.hpp"
#include "src/graphir/graph.hpp"
#include "src/lint/lint.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/serialize.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/request_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/sim/probability.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fcrit::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using netlist::NodeId;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Wall and process CPU time since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = process_cpu_s();
  double wall_s() const { return seconds_since(wall0); }
  double cpu_s() const { return process_cpu_s() - cpu0; }
};

/// A JSON number with every significant digit (non-finite values as 0).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted_hex(std::uint64_t v) { return "\"" + hex64(v) + "\""; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// (Q3 - Q1) / median, quartiles as Python's statistics.quantiles(n=4)
/// (exclusive method) computes them.
double spread(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  auto quartile = [&](long i) {
    long j = i * (n + 1) / 4;
    const long delta = i * (n + 1) - j * 4;
    j = std::clamp(j, 1L, n - 1);
    return (v[static_cast<std::size_t>(j - 1)] * double(4 - delta) +
            v[static_cast<std::size_t>(j)] * double(delta)) /
           4.0;
  };
  const double m = median(v);
  return m == 0.0 ? 0.0 : (quartile(3) - quartile(1)) / std::fabs(m);
}

/// The highest integer percentile p <= 90 with at least 10 samples beyond
/// its nearest-rank position, and p; when no p >= 75 has that (fewer than
/// 40 samples), the maximum and 100.
std::pair<double, int> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = 90; p >= 75; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(double(p) / 100.0 * double(n)));
    if (rank >= 1 && n - rank >= 10) return {v[rank - 1], p};
  }
  return {v.back(), 100};
}

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher" | "info"
  std::vector<double> samples;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit,
           const std::string& better, std::vector<double> samples) {
    metrics_.push_back({name, unit, better, std::move(samples)});
  }
  void add1(const std::string& name, const std::string& unit,
            const std::string& better, double value) {
    add(name, unit, better, {value});
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_)
      if (m.name == name) return &m;
    return nullptr;
  }
  /// Run metadata; `json_value` is already-encoded JSON.
  void meta(const std::string& key, const std::string& json_value) {
    meta_.emplace_back(key, json_value);
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) {
      ++failed_checks_;
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  int failed_checks() const { return failed_checks_; }

  std::string report_json(const std::string& workload) const {
    std::string out = "{\"report\":\"fcrit-perfbench/1\",\"workload\":" +
                      obs::json_string(workload) + ",\"meta\":{";
    for (std::size_t i = 0; i < meta_.size(); ++i)
      out += (i ? "," : "") + obs::json_string(meta_[i].first) + ":" +
             meta_[i].second;
    out += "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i)
      out += std::string(i ? "," : "") +
             "{\"name\":" + obs::json_string(checks_[i].name) +
             ",\"ok\":" + (checks_[i].ok ? "true" : "false") +
             ",\"detail\":" + obs::json_string(checks_[i].detail) + "}";
    out += "],\"metrics\":[";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += std::string(i ? "," : "") +
             "{\"name\":" + obs::json_string(m.name) +
             ",\"unit\":" + obs::json_string(m.unit) + ",\"samples\":[";
      for (std::size_t k = 0; k < m.samples.size(); ++k)
        out += (k ? "," : "") + num(m.samples[k]);
      out += "],\"median\":" + num(median(m.samples)) +
             ",\"spread\":" + num(spread(m.samples)) +
             ",\"better\":" + obs::json_string(m.better) + "}";
    }
    return out + "]}";
  }

  /// The result line: the named metrics' medians.
  std::string result_json(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<std::string>& names) const {
    std::string out = std::string("{\"correct\":") +
                      (correct ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < names.size(); ++i) {
      const Metric* m = find(names[i]);
      if (!m) throw std::logic_error("metric not recorded: " + names[i]);
      out += (i ? "," : "") + obs::json_string(names[i]) +
             ":{\"value\":" + num(median(m->samples)) +
             ",\"unit\":" + obs::json_string(m->unit) + "}";
    }
    return out + "}}";
  }

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Check> checks_;
  int failed_checks_ = 0;
};

// The metric sets BENCHMARK.json declares. Every workload reports all of
// them; a layer a workload never enters reports 0.
// The tails (op_cost_tail_ms and the wall-time figures) are in the full
// report only: over a run's few operations a tail is close to the maximum,
// which a shared host moves too far from run to run to hold a bound.
const std::vector<std::string> kEndToEnd = {"op_cost_ms", "setup_s",
                                           "peak_rss_mb"};

const std::vector<std::string> kKernels = {"matmul", "matmul_tn", "matmul_nt",
                                           "spmm", "spmm_t"};
// make_all_baselines order: MLP, LoR, RFC, SVM, EBM.
const std::vector<std::string> kBaselines = {"mlp", "logreg", "rforest", "svm",
                                             "ebm"};

std::vector<std::string> per_layer_names() {
  std::vector<std::string> n = {
      "ml.classifier_train_s", "ml.classifier_epochs",
      "ml.classifier_epoch_ms", "ml.regressor_train_s",
      "ml.regressor_epochs",    "ml.regressor_epoch_ms",
      "ml.baselines_s",         "ml.forward_ms"};
  for (const auto& b : kBaselines) n.push_back("ml.baseline." + b + "_s");
  for (const auto& k : kKernels)
    for (const char* s : {"_ms", "_calls", "_gflop", "_gb", "_gflop_per_s"})
      n.push_back("ml.kernel." + k + s);
  for (const char* s :
       {"core.dark_s", "trace.dark_share", "trace.overhead_ratio",
        "fault.campaign_s", "fault.golden_trace_s", "fault.sim_s",
        "fault.faults", "fault.simulated_faults", "fault.batches",
        "fault.frontier_evals", "fault.evals_per_s", "fault.early_exit_ratio",
        "fault.dataset_s", "sla.triage_s", "sla.prune_ratio",
        "sim.golden_stats_s", "lint.preflight_s", "graphir.graph_s",
        "graphir.features_s", "serve.bundle_load_ms",
        "serve.bundle_cache_hit_ratio", "serve.content_hash_ms",
        "serve.queue_wait_ms", "serve.dark_ms", "serve.nodes_per_s",
        "netlist.parse_ms", "lint.preflight_ms", "sim.golden_stats_ms",
        "graphir.features_ms"})
    n.emplace_back(s);
  return n;
}

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* s) {
    const std::size_t k = std::strlen(s);
    return name.size() >= k && name.compare(name.size() - k, k, s) == 0;
  };
  if (ends("_gflop_per_s")) return "GFLOP/s";
  if (ends("_per_s")) return "1/s";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_gflop")) return "GFLOP";
  if (ends("_gb")) return "GB";
  if (ends("_ratio") || ends("_share")) return "ratio";
  return "count";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- host speed -------------------------------------------------------------

/// A fixed reference computation owned by the benchmark: dense float
/// multiply-adds, random gathers from a 4 MiB table and chained 64-bit
/// logic, the three kinds of work the workloads spend their time on. On a
/// shared host the CPU time of the same work drifts by a third within
/// minutes (other tenants on the same cores, caches and memory), so each
/// run times this reference between its operations and scales an
/// operation's CPU time by kNominalS over the median of the passes around
/// it: its cost at the nominal host speed. The reference never calls the
/// program, so no change to the program moves it.
class HostSpeed {
 public:
  /// CPU seconds of one reference pass on an uncontended 4-vCPU VM at
  /// 2.0 GHz, the host the bounds were set on.
  static constexpr double kNominalS = 0.016;

  HostSpeed()
      : table_(kTableSize), a_(kDim * kDim), b_(kDim * kDim), c_(kDim * kDim) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& t : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      t = static_cast<std::uint32_t>(x);
    }
    for (std::size_t i = 0; i < a_.size(); ++i) {
      a_[i] = float(i % 7) * 0.25f;
      b_[i] = float(i % 5) * 0.5f;
    }
    sink_ = sink_ + work();  // the first pass faults the table in
  }

  /// Time one reference pass.
  void sample() {
    const Stopwatch sw;
    sink_ = sink_ + work();
    samples_.push_back(sw.cpu_s());
    at_.push_back(Clock::now());
  }

  /// Host speed relative to nominal over the run (below 1 when the host is
  /// slower), or around [t0, t1]: from the passes at most kAroundS before
  /// or after it.
  double speed() const { return kNominalS / median(samples_); }
  double speed(Clock::time_point t0, Clock::time_point t1) const {
    const auto around = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kAroundS));
    std::vector<double> near;
    for (std::size_t i = 0; i < samples_.size(); ++i)
      if (at_[i] >= t0 - around && at_[i] <= t1 + around)
        near.push_back(samples_[i]);
    return near.empty() ? speed() : kNominalS / median(near);
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr double kAroundS = 2.0;
  static constexpr int kDim = 64;
  static constexpr int kDenseReps = 160;
  static constexpr std::size_t kTableSize = 1u << 20;
  static constexpr std::uint32_t kGathers = 1u << 21;
  static constexpr int kLogicSteps = 1 << 22;

  double work() {
    std::fill(c_.begin(), c_.end(), 0.0f);
    for (int r = 0; r < kDenseReps; ++r)
      for (int i = 0; i < kDim; ++i)
        for (int k = 0; k < kDim; ++k) {
          const float aik = a_[i * kDim + k];
          for (int j = 0; j < kDim; ++j)
            c_[i * kDim + j] += aik * b_[k * kDim + j];
        }
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < kGathers; ++i)
      acc += table_[(i * 2654435761u) & (kTableSize - 1)];
    std::uint64_t w = acc | 1;
    for (int i = 0; i < kLogicSteps; ++i)
      w = ((w ^ (w << 7)) & ~(w >> 3)) | (w * 0x2545f4914f6cdd1dULL);
    return double(c_[kDim + 1]) + double(acc & 0xffff) + double(w & 0xff);
  }

  std::vector<std::uint32_t> table_;
  std::vector<float> a_, b_, c_;
  std::vector<double> samples_;
  std::vector<Clock::time_point> at_;  // when each sample ended
  volatile double sink_ = 0.0;  // keeps work() from being optimized away
};

// ---- layer spans ------------------------------------------------------------

/// Benchmark-side spans: time every call into a layer's public function
/// and sum it per span name. A disabled instance only runs the call.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  template <typename F>
  auto run(const std::string& name, F&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    struct Close {
      Spans* self;
      const std::string* name;
      Clock::time_point t0;
      ~Close() { self->total_[*name] += seconds_since(t0); }
    } close{this, &name, Clock::now()};
    return fn();
  }

  double get(const std::string& name) const {
    const auto it = total_.find(name);
    return it == total_.end() ? 0.0 : it->second;
  }
  double covered() const {
    double s = 0.0;
    for (const auto& [name, t] : total_) s += t;
    return s;
  }

 private:
  bool enabled_;
  std::map<std::string, double> total_;
};

// ---- digests ----------------------------------------------------------------

/// FNV-1a over raw bytes.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void digest_campaign(Digest& d, const fault::CampaignResult& c) {
  d.pod(c.faults.size());
  for (const fault::FaultResult& f : c.faults) {
    d.pod(f.fault.node);
    d.pod(f.fault.stuck_value);
    d.pod(f.dangerous_lanes);
    d.pod(f.detected_lanes);
    d.pod(f.mismatch_cycles);
    d.pod(f.cone_size);
    d.pod(f.first_detect_cycle);
  }
}

std::string model_text(const ml::GcnModel& m) {
  std::ostringstream os;
  ml::save_gcn(m, os);
  return os.str();
}

// ---- kernel accounting ------------------------------------------------------

/// Calls and summed milliseconds of each ml.kernel.<name>_ms histogram.
struct KernelTotals {
  std::map<std::string, std::pair<std::uint64_t, double>> calls_ms;

  static KernelTotals read() {
    KernelTotals t;
    for (const auto& k : kKernels) {
      const auto s =
          obs::registry().histogram("ml.kernel." + k + "_ms").snapshot();
      t.calls_ms[k] = {s.count, s.sum};
    }
    return t;
  }
  void add_delta(const KernelTotals& after, const KernelTotals& before) {
    for (const auto& k : kKernels) {
      calls_ms[k].first +=
          after.calls_ms.at(k).first - before.calls_ms.at(k).first;
      calls_ms[k].second +=
          after.calls_ms.at(k).second - before.calls_ms.at(k).second;
    }
  }
};

/// Analytic kernel cost of GCN work on an N-node graph with `nnz` stored
/// adjacency entries: per kernel, calls, flops and bytes moved (dense
/// operands read once and the output written once; for CSR, values,
/// column indices and row pointers read once plus one gathered dense row
/// per stored entry).
struct KernelCost {
  std::map<std::string, double> calls, flops, bytes;

  /// `forwards` forward and `backwards` backward passes of a GcnModel whose
  /// conv widths are `widths` (input width first).
  void add_model(const std::vector<int>& widths, double n, double nnz,
                 double forwards, double backwards) {
    for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
      const double in = widths[l], out = widths[l + 1];
      const double dense_flops = 2.0 * n * in * out;
      const double dense_bytes = 4.0 * (n * in + in * out + n * out);
      const double sparse_flops = 2.0 * nnz * out;
      const double sparse_bytes =
          4.0 * (2.0 * nnz + n + 1.0) + 4.0 * out * (nnz + n);
      auto add = [&](const char* k, double count, double f, double b) {
        calls[k] += count;
        flops[k] += count * f;
        bytes[k] += count * b;
      };
      add("matmul", forwards, dense_flops, dense_bytes);      // X W
      add("spmm", forwards, sparse_flops, sparse_bytes);      // Â Z
      add("spmm_t", backwards, sparse_flops, sparse_bytes);   // Âᵀ G
      add("matmul_tn", backwards, dense_flops, dense_bytes);  // Xᵀ G
      add("matmul_nt", backwards, dense_flops, dense_bytes);  // G Wᵀ
    }
  }
};

std::vector<int> conv_widths(int in_features, const ml::GcnConfig& c) {
  std::vector<int> w{in_features};
  w.insert(w.end(), c.hidden.begin(), c.hidden.end());
  w.push_back(c.output_dim);
  return w;
}

// ---- generated designs ------------------------------------------------------

/// Append `block` to `out`, prefixing port names (gate instance names are
/// regenerated, so they stay unique).
void append_block(netlist::Netlist& out, const netlist::Netlist& block,
                  const std::string& prefix) {
  std::vector<NodeId> map(block.num_nodes(), netlist::kNoNode);
  std::vector<std::pair<NodeId, std::size_t>> forward_refs;
  for (NodeId id = 0; id < block.num_nodes(); ++id) {
    const netlist::Node& n = block.node(id);
    if (n.kind == netlist::CellKind::kInput) {
      map[id] = out.add_input(prefix + n.name);
    } else if (n.kind == netlist::CellKind::kConst0 ||
               n.kind == netlist::CellKind::kConst1) {
      map[id] = out.add_const(n.kind == netlist::CellKind::kConst1);
    } else {
      std::vector<NodeId> fanins;
      for (std::size_t s = 0; s < n.fanin_count; ++s) {
        const NodeId src = n.fanin[s];
        fanins.push_back(src < id ? map[src] : netlist::kNoNode);
        if (src >= id) forward_refs.emplace_back(id, s);
      }
      map[id] = out.add_gate(n.kind, fanins);
    }
  }
  for (const auto& [id, slot] : forward_refs)
    out.set_fanin(map[id], slot, map[block.node(id).fanin[slot]]);
  for (const netlist::OutputPort& o : block.outputs())
    out.add_output(prefix + o.name, map[o.driver]);
}

/// label_gen's design: kLabelBlocks independent random sequential blocks,
/// each a build_random_circuit from a seed-derived sub-seed, in one
/// netlist. A single random circuit's campaign cost swings 4x with its
/// seed; summed over many blocks it stays within a few percent, and every
/// block keeps dense switching and flop feedback. 256 blocks (~19k nodes)
/// at kLabelCycles take ~2 s a pass on one thread, so a window holds
/// several passes.
constexpr int kLabelBlocks = 256;
/// Campaign cycles; the golden-statistics run simulates twice as many.
constexpr int kLabelCycles = 96;

designs::RandomCircuitConfig label_block_config(std::uint64_t seed, int k) {
  designs::RandomCircuitConfig rc;
  rc.num_inputs = 8;
  rc.num_gates = 64;
  rc.num_flops = 4;
  rc.num_outputs = 4;
  rc.reuse_bias = 0.3;
  rc.seed = mix_seed(seed, 0x1abe1000ULL + static_cast<std::uint64_t>(k));
  return rc;
}

designs::Design build_label_design(std::uint64_t seed) {
  designs::Design d;
  d.name = "label_gen_" + std::to_string(seed);
  d.netlist.set_name(d.name);
  for (int k = 0; k < kLabelBlocks; ++k) {
    const designs::Design block =
        designs::build_random_circuit(label_block_config(seed, k));
    append_block(d.netlist, block.netlist, "b" + std::to_string(k) + "_");
  }
  d.stimulus.default_profile.p1 = 0.5;
  d.netlist.validate();
  return d;
}

// ---- common run plumbing ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string workdir = ".";
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

/// Compute threads of every timed operation. More than one measures the
/// host's scheduler: a parallel loop waits for its slowest thread, and on a
/// shared VM any other process preempts one of them.
constexpr int kThreads = 1;

/// Pin the calling thread, and every thread it starts from now on, to the
/// CPU it is running on; returns the affinity it had. The timed work and
/// the reference passes then share one virtual CPU, whose host core other
/// tenants load differently from its neighbours', and never migrate.
cpu_set_t pin_to_current_cpu() {
  cpu_set_t before;
  CPU_ZERO(&before);
  sched_getaffinity(0, sizeof before, &before);
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  return before;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;  // read when the timed window closes
};

void add_common_meta(Report& rep, const Args& a) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  rep.meta("git_rev", obs::json_string(a.git_rev));
  rep.meta("src_digest", obs::json_string(a.src_digest));
  rep.meta("build_type", obs::json_string(build));
  rep.meta("release_build", build == "Release" ? "true" : "false");
  rep.meta("nproc", std::to_string(util::hardware_threads()));
  rep.meta("seed", std::to_string(a.seed));
  rep.meta("seconds", num(a.seconds));
  rep.meta("trace", a.trace ? "true" : "false");
  if (build != "Release")
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release\n",
                 build.c_str());
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  for (const double x : v) out.push_back(x * k);
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Per-operation times of one workload.
struct OpTimes {
  std::vector<double> cpu_ms, wall_ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> span;
  void add(const Stopwatch& sw) {
    cpu_ms.push_back(sw.cpu_s() * 1e3);
    wall_ms.push_back(sw.wall_s() * 1e3);
    span.emplace_back(sw.wall0, Clock::now());
  }
  /// CPU milliseconds at the nominal host speed.
  std::vector<double> cost_ms(const HostSpeed& host) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < cpu_ms.size(); ++i)
      out.push_back(cpu_ms[i] * host.speed(span[i].first, span[i].second));
    return out;
  }
};

/// End-to-end metrics every workload reports: operation cost (CPU time at
/// the nominal host speed, median and tail) and set-up cost, the raw CPU
/// and wall times with throughput, and the reference passes the host speed
/// came from. peak_rss_mb is added by main.
void add_end_to_end(Report& rep, const OpTimes& op, const OpTimes& setup,
                    const HostSpeed& host) {
  const std::vector<double> cost_ms = op.cost_ms(host);
  const auto [tail_ms, tail_p] = tail(cost_ms);
  rep.add("op_cost_ms", "ms", "lower", cost_ms);
  rep.add1("op_cost_tail_ms", "ms", "lower", tail_ms);
  rep.meta("op_tail_percentile", std::to_string(tail_p));
  rep.add("setup_s", "s", "lower", scaled(setup.cost_ms(host), 1e-3));
  rep.add("host_reference_ms", "ms", "info", scaled(host.samples(), 1e3));
  rep.meta("host_speed", num(host.speed()));
  rep.add("setup_cpu_s", "s", "lower", scaled(setup.cpu_ms, 1e-3));
  rep.add("op_cpu_ms", "ms", "lower", op.cpu_ms);
  rep.add("op_wall_ms", "ms", "lower", op.wall_ms);
  rep.add1("op_wall_tail_ms", "ms", "lower", tail(op.wall_ms).first);
  rep.add1("ops_per_s", "1/s", "higher",
           double(op.wall_ms.size()) / sum(op.wall_ms) * 1e3);
}

// ---- train_ee_zonal ---------------------------------------------------------

// Results of the standard pipeline on ee_zonal are bitwise-deterministic at
// any thread count; these pins turn a result-changing "speed-up" into a
// correctness failure. Update them only with a change meant to alter
// results.
constexpr const char* kTrainDigest = "1714e3fc35531c62";
constexpr double kTrainValAuc = 0.99471460200885631;
constexpr double kTrainValPearson = 0.95176463128200395;

struct TrainOutputs {
  std::uint64_t digest = 0;
  double val_auc = 0.0;
  double val_pearson = 0.0;
};

std::uint64_t train_digest(const ml::GcnModel& clf, const ml::GcnModel& reg,
                           const fault::CampaignResult& campaign) {
  Digest d;
  d.str(model_text(clf));
  d.str(model_text(reg));
  digest_campaign(d, campaign);
  return d.value();
}

/// Traced replay of FaultCriticalityAnalyzer::analyze: the public calls
/// src/core/pipeline.cpp makes, in its order, each inside a span.
/// `untraced_s` is the wall time of an untraced analyze() of the same
/// design, the reference for the tracing overhead.
TrainOutputs replay_analyze(const designs::Design& design,
                            const core::PipelineConfig& cfg, Report& rep,
                            double untraced_s) {
  Spans sp(true);
  const auto t0 = Clock::now();
  const netlist::Netlist& nl = design.netlist;
  sp.run("netlist.validate", [&] { nl.validate(); });
  sp.run("lint.preflight", [&] {
    if (lint::lint_netlist(nl).errors() > 0)
      throw std::runtime_error("ee_zonal: lint preflight errors");
  });
  const sim::SignalStats stats = sp.run("sim.golden_stats", [&] {
    return sim::estimate_by_simulation(nl, design.stimulus,
                                       cfg.probability_seed,
                                       cfg.probability_cycles);
  });
  fault::CampaignConfig cc;
  cc.cycles = cfg.campaign_cycles;
  cc.seed = cfg.campaign_seed;
  cc.dangerous_cycle_fraction = cfg.dangerous_cycle_fraction >= 0
                                    ? cfg.dangerous_cycle_fraction
                                    : design.dangerous_cycle_fraction;
  cc.engine = cfg.campaign_engine;
  cc.batch_faults = cfg.campaign_batch_faults;
  cc.collapse_equivalent = cfg.campaign_collapse_equivalent;
  cc.static_prune = cfg.campaign_static_prune;
  cc.num_threads = cfg.campaign_threads;
  const fault::CampaignResult campaign = sp.run("fault.campaign", [&] {
    fault::FaultCampaign fc(nl, design.stimulus, cc);
    return fc.run_all();
  });
  const fault::CriticalityDataset ds = sp.run("fault.dataset", [&] {
    return fault::generate_dataset(campaign, cfg.criticality_threshold);
  });
  const graphir::CircuitGraph graph =
      sp.run("graphir.graph", [&] { return graphir::build_graph(nl); });
  const ml::Matrix raw = sp.run("graphir.features", [&] {
    return graphir::extract_features(nl, stats);
  });
  std::vector<int> labels(nl.num_nodes(), 0), candidates;
  std::vector<double> scores(nl.num_nodes(), 0.0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    labels[ds.nodes[i]] = ds.label[i];
    scores[ds.nodes[i]] = ds.score[i];
    candidates.push_back(static_cast<int>(ds.nodes[i]));
  }
  const graphir::Split split = sp.run("graphir.split", [&] {
    return graphir::stratified_split(candidates, labels, cfg.train_fraction,
                                     cfg.split_seed);
  });
  sp.run("lint.graphir", [&] {
    lint::LintReport gate;
    lint::lint_graphir(nl,
                       {.graph = &graph,
                        .features = &raw,
                        .labels = &labels,
                        .split = &split},
                       gate);
    if (gate.errors() > 0)
      throw std::runtime_error("ee_zonal: graph-IR gate errors");
  });
  const ml::Matrix x = sp.run("graphir.standardize", [&] {
    return graphir::Standardizer::fit(raw, split.train).transform(raw);
  });

  // GCN phases: kernel-histogram deltas and mean epoch time per phase.
  const auto& adj = graph.normalized_adjacency;
  KernelTotals gcn_kernels;
  auto gcn_phase = [&](const std::string& span, auto&& fn) {
    const KernelTotals before = KernelTotals::read();
    auto out = sp.run(span, fn);
    gcn_kernels.add_delta(KernelTotals::read(), before);
    return out;
  };
  auto mean_epoch_ms = [](const std::string& hist, auto&& fn) {
    const auto before = obs::registry().histogram(hist).snapshot();
    fn();
    const auto after = obs::registry().histogram(hist).snapshot();
    const auto n = after.count - before.count;
    return n ? (after.sum - before.sum) / double(n) : 0.0;
  };

  ml::GcnModel clf(x.cols(), cfg.classifier);
  ml::TrainHistory clf_hist;
  const double clf_epoch_ms = mean_epoch_ms("ml.classifier.epoch_ms", [&] {
    clf_hist = gcn_phase("ml.classifier_train", [&] {
      return ml::train_classifier(clf, adj, x, labels, split.train, split.val,
                                  cfg.train);
    });
  });
  const ml::Matrix logp =
      gcn_phase("ml.forward", [&] { return clf.forward(x, false); });

  double baselines_s = 0.0;
  {
    auto models = ml::make_all_baselines(cfg.baseline_seed);
    for (std::size_t i = 0; i < models.size(); ++i) {
      const std::string span =
          "ml.baseline." +
          (i < kBaselines.size() ? kBaselines[i] : models[i]->name());
      sp.run(span, [&] {
        models[i]->fit(x, labels, split.train);
        return models[i]->predict_proba(x);
      });
      rep.add1(span + "_s", "s", "info", sp.get(span));
      baselines_s += sp.get(span);
    }
  }

  ml::GcnConfig rc = ml::GcnConfig::regressor();
  rc.hidden = cfg.classifier.hidden;
  rc.dropout = cfg.classifier.dropout;
  rc.dropout_after = cfg.classifier.dropout_after;
  ml::GcnModel reg(x.cols(), rc);
  ml::TrainHistory reg_hist;
  const double reg_epoch_ms = mean_epoch_ms("ml.regressor.epoch_ms", [&] {
    reg_hist = gcn_phase("ml.regressor_train", [&] {
      return ml::train_regressor(reg, adj, x, scores, split.train, split.val,
                                 cfg.regressor_train);
    });
  });
  const ml::Matrix pred =
      gcn_phase("ml.regressor_forward", [&] { return reg.forward(x, false); });
  const double traced_s = seconds_since(t0);

  TrainOutputs out;
  out.digest = train_digest(clf, reg, campaign);
  out.val_auc = ml::roc_auc(ml::class1_probability(logp), labels, split.val);
  std::vector<double> val_true, val_pred;
  for (const int i : split.val) {
    val_true.push_back(scores[static_cast<std::size_t>(i)]);
    val_pred.push_back(static_cast<double>(pred(i, 0)));
  }
  out.val_pearson = ml::pearson(val_true, val_pred);

  rep.add1("ml.classifier_train_s", "s", "info",
           sp.get("ml.classifier_train"));
  rep.add1("ml.classifier_epochs", "count", "info",
           double(clf_hist.train_loss.size()));
  rep.add1("ml.classifier_epoch_ms", "ms", "info", clf_epoch_ms);
  rep.add1("ml.regressor_train_s", "s", "info", sp.get("ml.regressor_train"));
  rep.add1("ml.regressor_epochs", "count", "info",
           double(reg_hist.train_loss.size()));
  rep.add1("ml.regressor_epoch_ms", "ms", "info", reg_epoch_ms);
  rep.add1("ml.baselines_s", "s", "info", baselines_s);
  rep.add1("ml.forward_ms", "ms", "info", sp.get("ml.forward") * 1e3);

  // Kernel cost at the real layer shapes N x {5,16,32,64,2|1}: per epoch a
  // training forward, a backward and an evaluation forward, then one
  // inference forward after training.
  KernelCost cost;
  const double n = double(nl.num_nodes()), nnz = double(adj.nnz());
  const double clf_epochs = double(clf_hist.train_loss.size());
  const double reg_epochs = double(reg_hist.train_loss.size());
  cost.add_model(conv_widths(x.cols(), cfg.classifier), n, nnz,
                 2 * clf_epochs + 1, clf_epochs);
  cost.add_model(conv_widths(x.cols(), rc), n, nnz, 2 * reg_epochs + 1,
                 reg_epochs);
  bool calls_match = true;
  std::string calls_detail;
  for (const auto& k : kKernels) {
    const auto [calls, ms] = gcn_kernels.calls_ms.at(k);
    calls_match = calls_match && double(calls) == cost.calls[k];
    const double gflop = cost.flops[k] * 1e-9;
    rep.add1("ml.kernel." + k + "_ms", "ms", "info", ms);
    rep.add1("ml.kernel." + k + "_calls", "count", "info", double(calls));
    rep.add1("ml.kernel." + k + "_gflop", "GFLOP", "info", gflop);
    rep.add1("ml.kernel." + k + "_gb", "GB", "info", cost.bytes[k] * 1e-9);
    rep.add1("ml.kernel." + k + "_gflop_per_s", "GFLOP/s", "info",
             ms > 0 ? gflop / (ms * 1e-3) : 0.0);
    calls_detail += (calls_detail.empty() ? "" : " ") + k + "=" +
                    std::to_string(calls) + "/" +
                    std::to_string(static_cast<long long>(cost.calls[k]));
  }
  // A mismatch means the derived flop/byte figures no longer describe the
  // kernels' real calls; it does not make the pipeline's results wrong.
  if (!calls_match)
    std::fprintf(stderr, "perfbench: kernel call model stale: %s\n",
                 calls_detail.c_str());
  rep.meta("gcn_kernel_calls_measured_vs_derived",
           obs::json_string(calls_detail));
  rep.meta("gcn_shapes", obs::json_string(
                             "N=" + std::to_string(nl.num_nodes()) +
                             " nnz=" + std::to_string(adj.nnz()) +
                             " widths=" + std::to_string(x.cols()) +
                             ",16,32,64,{2|1}"));

  rep.add1("lint.preflight_s", "s", "info",
           sp.get("lint.preflight") + sp.get("lint.graphir"));
  rep.add1("sim.golden_stats_s", "s", "info", sp.get("sim.golden_stats"));
  rep.add1("graphir.graph_s", "s", "info", sp.get("graphir.graph"));
  rep.add1("graphir.features_s", "s", "info", sp.get("graphir.features"));
  rep.add1("fault.campaign_s", "s", "info", sp.get("fault.campaign"));
  rep.add1("fault.dataset_s", "s", "info", sp.get("fault.dataset"));
  rep.add1("trace.overhead_ratio", "ratio", "info", traced_s / untraced_s);
  rep.meta("traced_op_s", num(traced_s));
  return out;
}

/// Stage spans FaultCriticalityAnalyzer::analyze records itself
/// (src/core/pipeline.cpp); everything else in an analyze() call is the
/// orchestrator's dark time.
const std::vector<std::string> kPipelineStages = {
    "lint",      "golden_sim",    "fi_campaign", "graph_features",
    "gcn_train", "gcn_inference", "baselines",   "regressor"};

Outcome run_train(const Args& a, Report& rep) {
  pin_to_current_cpu();
  util::set_num_threads(kThreads);
  core::PipelineConfig cfg = bench::standard_config();
  cfg.jobs = kThreads;
  cfg.campaign_threads = kThreads;
  rep.meta("threads", "{\"ml_jobs\":" + std::to_string(cfg.jobs) +
                          ",\"campaign\":" +
                          std::to_string(cfg.campaign_threads) + "}");
  rep.meta("generator",
           "{\"design\":\"ee_zonal\",\"config\":\"bench::standard_config\","
           "\"uses_seed\":false}");

  HostSpeed host;
  OpTimes setup;
  auto set_up = [&] {
    const Stopwatch sw;
    designs::Design d = designs::build_design("ee_zonal");
    d.netlist.validate();
    setup.add(sw);
    return d;
  };
  // Between operations: reference passes, each followed by one more set-up
  // repetition, so set-up is timed at the same host speeds as the
  // operations. An operation is long, so a gap gets several.
  auto gap = [&] {
    for (int i = 0; i < 5; ++i) {
      host.sample();
      set_up();
    }
  };
  host.sample();
  const designs::Design design = set_up();
  rep.meta("input_hashes",
           "{\"ee_zonal\":" +
               quoted_hex(serve::netlist_content_hash(design.netlist)) + "}");

  const core::FaultCriticalityAnalyzer analyzer(cfg);
  Outcome oc;
  OpTimes op;
  std::vector<TrainOutputs> outs;
  auto analyze_once = [&](bool timed) {
    designs::Design copy = design;
    const Stopwatch sw;
    const core::PipelineResult r = analyzer.analyze(std::move(copy));
    if (timed) op.add(sw);
    ++oc.attempted;
    outs.push_back({train_digest(*r.gcn, *r.regressor, r.campaign),
                    r.gcn_eval.val_auc, r.regression->val_pearson});
    return sw.wall_s();
  };

  gap();
  const auto window = Clock::now();
  if (!a.trace) {
    do {
      analyze_once(true);
      gap();
    } while (seconds_since(window) < a.seconds);
  } else {
    // 1) untraced analyze; 2) analyze under the program's own stage
    // tracer, whose uncovered remainder is the orchestrator's dark time;
    // 3) the benchmark's layer-by-layer replay.
    const double untraced_s = analyze_once(true);
    gap();
    obs::Tracer::instance().start();
    const double staged_s = analyze_once(false);
    obs::Tracer::instance().stop();
    double covered_s = 0.0;
    for (const obs::TraceEvent& e : obs::Tracer::instance().events())
      if (std::find(kPipelineStages.begin(), kPipelineStages.end(), e.name) !=
          kPipelineStages.end())
        covered_s += double(e.dur_us) * 1e-6;
    rep.add1("core.dark_s", "s", "info", staged_s - covered_s);
    rep.add1("trace.dark_share", "ratio", "info",
             (staged_s - covered_s) / staged_s);
    ++oc.attempted;
    outs.push_back(replay_analyze(design, cfg, rep, untraced_s));
  }

  oc.peak_rss_mb = peak_rss_mb();

  // Correctness: every repetition (and the traced replay) bitwise equal,
  // and equal to the pinned reference.
  std::uint64_t bad = 0;
  for (const TrainOutputs& o : outs)
    if (hex64(o.digest) != kTrainDigest || o.val_auc != kTrainValAuc ||
        o.val_pearson != kTrainValPearson)
      ++bad;
  char detail[200];
  std::snprintf(detail, sizeof detail,
                "digest %s val_auc %.17g val_pearson %.17g over %zu runs",
                hex64(outs.front().digest).c_str(), outs.front().val_auc,
                outs.front().val_pearson, outs.size());
  rep.check("train_results_pinned", bad == 0, detail);
  oc.failed = bad;

  add_end_to_end(rep, op, setup, host);
  rep.add("train_s", "s", "lower", scaled(op.wall_ms, 1e-3));
  rep.add1("val_auc", "ratio", "higher", outs.front().val_auc);
  rep.add1("val_pearson", "ratio", "higher", outs.front().val_pearson);
  rep.meta("results_digest", quoted_hex(outs.front().digest));
  return oc;
}

// ---- label_gen --------------------------------------------------------------

struct LabelOutputs {
  fault::CampaignResult campaign;
  std::uint64_t digest = 0;
  std::size_t dataset_rows = 0;
  std::size_t lint_errors = 0;
};

fault::CampaignConfig label_campaign_config(std::uint64_t seed) {
  fault::CampaignConfig cc;
  cc.cycles = kLabelCycles;
  cc.seed = mix_seed(seed, 0xca3ULL);
  cc.static_prune = true;
  cc.num_threads = kThreads;
  return cc;
}

/// One labelling pass: lint -> golden stats -> campaign (static triage on)
/// -> Algorithm-1 dataset -> graph + features.
LabelOutputs label_once(const designs::Design& d,
                        const fault::CampaignConfig& cc, Spans& sp) {
  LabelOutputs out;
  const netlist::Netlist& nl = d.netlist;
  out.lint_errors =
      sp.run("lint.preflight", [&] { return lint::lint_netlist(nl).errors(); });
  const sim::SignalStats stats = sp.run("sim.golden_stats", [&] {
    return sim::estimate_by_simulation(nl, d.stimulus, 99, 2 * kLabelCycles);
  });
  out.campaign = sp.run("fault.campaign", [&] {
    fault::FaultCampaign fc(nl, d.stimulus, cc);
    return fc.run_all();
  });
  const fault::CriticalityDataset ds = sp.run("fault.dataset", [&] {
    return fault::generate_dataset(out.campaign, 0.5);
  });
  const graphir::CircuitGraph graph =
      sp.run("graphir.graph", [&] { return graphir::build_graph(nl); });
  const ml::Matrix raw = sp.run("graphir.features", [&] {
    return graphir::extract_features(nl, stats);
  });
  Digest dg;
  digest_campaign(dg, out.campaign);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    dg.pod(ds.nodes[i]);
    dg.pod(ds.score[i]);
  }
  dg.pod(graph.normalized_adjacency.nnz());
  dg.bytes(raw.data(), raw.size() * sizeof(float));
  out.digest = dg.value();
  out.dataset_rows = ds.size();
  return out;
}

/// A strided sample of `faults` faults of `camp` re-simulated by the
/// levelized reference engine, then a sparser one through the
/// cone/naive/injected oracles; "" when all agree.
std::string label_oracles(const designs::Design& d,
                          const fault::CampaignConfig& cc,
                          const fault::CampaignResult& camp, int faults) {
  fault::CampaignConfig ref_cfg = cc;
  ref_cfg.engine = fault::FiEngine::kLevelized;
  ref_cfg.static_prune = false;
  fault::FaultCampaign ref(d.netlist, d.stimulus, ref_cfg);
  ref.run_golden();
  const std::size_t stride = std::max<std::size_t>(
      1, camp.faults.size() / static_cast<std::size_t>(faults));
  for (std::size_t i = 0; i < camp.faults.size(); i += stride) {
    const fault::FaultResult& got = camp.faults[i];
    const fault::FaultResult want = ref.simulate_fault(got.fault);
    if (got.dangerous_lanes != want.dangerous_lanes ||
        got.detected_lanes != want.detected_lanes ||
        got.mismatch_cycles != want.mismatch_cycles ||
        got.first_detect_cycle != want.first_detect_cycle)
      return "campaign verdict differs from the levelized reference for " +
             fault::fault_name(d.netlist, got.fault);
  }
  // The naive and injected legs re-simulate the whole netlist per fault,
  // so they get a sparser sample.
  return check::diff_fault_oracles(d, cc, std::max(1, faults / 4));
}

Outcome run_label(const Args& a, Report& rep) {
  pin_to_current_cpu();
  util::set_num_threads(kThreads);
  const fault::CampaignConfig cc = label_campaign_config(a.seed);
  const auto b0 = label_block_config(a.seed, 0);
  rep.meta("threads", "{\"campaign\":" + std::to_string(cc.num_threads) +
                          ",\"pool\":" + std::to_string(util::num_threads()) +
                          "}");
  rep.meta("generator",
           "{\"blocks\":" + std::to_string(kLabelBlocks) +
               ",\"block\":{\"inputs\":" + std::to_string(b0.num_inputs) +
               ",\"gates\":" + std::to_string(b0.num_gates) +
               ",\"flops\":" + std::to_string(b0.num_flops) +
               ",\"outputs\":" + std::to_string(b0.num_outputs) +
               ",\"reuse_bias\":" + num(b0.reuse_bias) +
               "},\"campaign_cycles\":" + std::to_string(cc.cycles) +
               ",\"campaign_seed\":" + std::to_string(cc.seed) +
               ",\"probability_cycles\":" + std::to_string(2 * kLabelCycles) +
               ",\"probability_seed\":99}");

  HostSpeed host;
  OpTimes setup;
  auto set_up = [&] {
    const Stopwatch sw;
    designs::Design d = build_label_design(a.seed);
    setup.add(sw);
    return d;
  };
  // Between passes: reference passes, each followed by one more set-up
  // repetition, so set-up is timed at the same host speeds as the passes.
  auto gap = [&] {
    for (int i = 0; i < 3; ++i) {
      host.sample();
      set_up();
    }
  };
  host.sample();
  const designs::Design d = set_up();
  rep.meta("input_hashes",
           "{" + obs::json_string(d.name) + ":" +
               quoted_hex(serve::netlist_content_hash(d.netlist)) + "}");
  rep.meta("design_nodes", std::to_string(d.netlist.num_nodes()));

  // Traced runs alternate untraced and traced passes, so the overhead
  // ratio compares like with like.
  Outcome oc;
  OpTimes op;
  std::vector<double> traced_ms, dark_s;
  std::map<std::string, std::vector<double>> layer;
  std::vector<LabelOutputs> outs;
  gap();
  const auto window = Clock::now();
  for (; oc.attempted < 2 || seconds_since(window) < a.seconds; gap()) {
    const bool traced = a.trace && oc.attempted % 2 == 1;
    Spans sp(traced);
    const Stopwatch sw;
    LabelOutputs o = label_once(d, cc, sp);
    const double s = sw.wall_s();
    ++oc.attempted;
    if (!traced) op.add(sw);
    if (traced) {
      traced_ms.push_back(s * 1e3);
      for (const char* k :
           {"lint.preflight", "sim.golden_stats", "fault.campaign",
            "fault.dataset", "graphir.graph", "graphir.features"})
        layer[std::string(k) + "_s"].push_back(sp.get(k));
      const fault::CampaignResult& c = o.campaign;
      layer["fault.golden_trace_s"].push_back(c.golden_seconds);
      layer["fault.sim_s"].push_back(c.fault_seconds);
      layer["sla.triage_s"].push_back(c.triage_seconds);
      layer["fault.evals_per_s"].push_back(double(c.frontier_evals) /
                                           c.fault_seconds);
      dark_s.push_back(s - sp.covered());
    }
    outs.push_back(std::move(o));
  }

  oc.peak_rss_mb = peak_rss_mb();

  // Correctness: identical verdicts, dataset and features on every pass,
  // a clean lint, one dataset row per fault site, and a strided fault
  // sample re-simulated by independent engines.
  std::uint64_t bad = 0;
  const std::size_t sites = fault::fault_sites(d.netlist).size();
  for (const LabelOutputs& o : outs)
    if (o.digest != outs.front().digest || o.lint_errors != 0 ||
        o.dataset_rows != sites)
      ++bad;
  rep.check("label_repeatable", bad == 0,
            "digest " + hex64(outs.front().digest) + " over " +
                std::to_string(outs.size()) + " passes, " +
                std::to_string(sites) + " sites");
  constexpr int kOracleFaults = 24;
  const fault::CampaignResult& camp = outs.front().campaign;
  const std::string why = label_oracles(d, cc, camp, kOracleFaults);
  rep.check("label_fault_oracles", why.empty(),
            why.empty() ? std::to_string(kOracleFaults) +
                              " strided faults match the levelized engine, " +
                              std::to_string(kOracleFaults / 4) +
                              " the naive and injected oracles"
                        : why);
  if (!why.empty()) ++bad;
  oc.failed = std::min<std::uint64_t>(bad, oc.attempted);

  add_end_to_end(rep, op, setup, host);
  rep.add("label_s", "s", "lower", scaled(op.wall_ms, 1e-3));
  if (a.trace) {
    for (const auto& [k, v] : layer) rep.add(k, unit_of(k), "info", v);
    rep.add1("fault.faults", "count", "info", double(camp.faults.size()));
    rep.add1("fault.simulated_faults", "count", "info",
             double(camp.simulated_faults));
    rep.add1("fault.batches", "count", "info", double(camp.num_batches));
    rep.add1("fault.frontier_evals", "count", "info",
             double(camp.frontier_evals));
    const double fault_cycles =
        double(camp.simulated_faults) * double(cc.cycles);
    rep.add1("fault.early_exit_ratio", "ratio", "info",
             double(camp.early_exit_cycles) / fault_cycles);
    rep.add1("sla.prune_ratio", "ratio", "info",
             double(camp.pruned_faults) / double(camp.faults.size()));
    rep.add("core.dark_s", "s", "info", dark_s);
    const double traced = median(traced_ms), plain = median(op.wall_ms);
    rep.add1("trace.dark_share", "ratio", "info",
             median(dark_s) * 1e3 / traced);
    rep.add1("trace.overhead_ratio", "ratio", "info", traced / plain);
  }
  return oc;
}

// ---- score_mixed ------------------------------------------------------------

const std::vector<std::string> kBuiltinTargets = {
    "or1200_icfsm", "or1200_genpc", "sdram_ctrl", "or1200_if", "ee_zonal"};
// Timed requests come in rounds of kRound: every built-in design once (each
// fourth request) and kRound - 5 generated circuits of kMinGates..kMaxGates
// combinational gates (flops = gates/16), one at each of evenly spaced
// quantiles of a density proportional to gates^-1.5 (mean ~7k gates). The
// latency metrics use whole rounds only, so every run's sample holds the
// same sizes however many rounds fit in the window; the seed picks each
// circuit's structure.
constexpr double kMinGates = 1000, kMaxGates = 50000;
constexpr std::size_t kRound = 20;
constexpr std::size_t kBuiltinEvery = 4;
constexpr std::size_t kRoundGenerated = kRound - kRound / kBuiltinEvery;
// Target files per second of window: ~2x the rate one engine worker
// reached on a 4-vCPU VM. A faster build may drain the pool early, which
// only shortens the window.
constexpr double kTargetsPerSecond = 9;
// Requests scored untimed before the window opens: a generated circuit
// larger than any timed one and the largest built-in design. Caches are
// warm when timing starts, and the peak RSS does not hinge on which
// requests fit in the window.
constexpr std::size_t kWarmup = 2;
constexpr double kWarmupGates = 1.25 * kMaxGates;

struct ScoreTarget {
  std::string kind;  // built-in design name or "random"
  int gates = 0;
  std::string path;
  std::size_t nodes = 0;
};

/// The request sequence: the kWarmup warm-up targets, then `rounds` timed
/// rounds. Within a round the generated sizes visit their quantiles in a
/// stride-7 order, so large and small circuits alternate.
std::vector<ScoreTarget> target_specs(std::size_t rounds) {
  static_assert(kRound % kBuiltinEvery == 0 &&
                kRound / kBuiltinEvery == 5 && kRoundGenerated % 7 != 0);
  std::vector<ScoreTarget> specs(kWarmup + rounds * kRound);
  specs[0] = {"random", static_cast<int>(kWarmupGates), "", 0};
  specs[1] = {"ee_zonal", 0, "", 0};
  for (std::size_t k = 0; k < rounds * kRound; ++k) {
    ScoreTarget& t = specs[kWarmup + k];
    const std::size_t pos = k % kRound;
    if (pos % kBuiltinEvery == kBuiltinEvery - 1) {
      t.kind = kBuiltinTargets[pos / kBuiltinEvery];
    } else {
      const std::size_t j = pos - pos / kBuiltinEvery;  // generated index
      const double x =
          (double((j * 7) % kRoundGenerated) + 0.5) / double(kRoundGenerated);
      // Inverse CDF of a density proportional to gates^-1.5.
      const double lo = 1 / std::sqrt(kMinGates);
      const double hi = 1 / std::sqrt(kMaxGates);
      const double r = lo - x * (lo - hi);
      t.kind = "random";
      t.gates = static_cast<int>(std::lround(1 / (r * r)));
    }
  }
  return specs;
}

/// The deterministic untrained bundle every request scores against.
void write_untrained_bundle(const std::string& path) {
  serve::ModelBundle b;
  b.manifest.design_name = "perfbench_untrained";
  b.manifest.netlist_hash = 0;
  b.manifest.feature_width = graphir::kNumBaseFeatures;
  b.manifest.feature_names = graphir::base_feature_names();
  b.manifest.probability_cycles = 512;
  b.manifest.probability_seed = 99;
  b.manifest.criticality_threshold = 0.5;
  b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
  b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
  b.classifier = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures,
                                                ml::GcnConfig::classifier());
  b.regressor = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures,
                                               ml::GcnConfig::regressor());
  serve::save_bundle_file(b, path);
}

/// Write one file per target. Every file is a different netlist: generated
/// circuits get their own sub-seed, built-in designs a per-request module
/// name. Returns a digest of all file bytes.
std::uint64_t write_targets(const std::string& dir, std::uint64_t seed,
                            std::vector<ScoreTarget>& targets) {
  Digest all;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ScoreTarget& t = targets[i];
    designs::Design d;
    if (t.kind == "random") {
      designs::RandomCircuitConfig rc;
      rc.num_inputs = 32;
      rc.num_gates = t.gates;
      rc.num_flops = t.gates / 16;
      rc.num_outputs = 32;
      rc.reuse_bias = 0.3;
      // The warm-up circuit is the same for every seed: it sets the peak
      // RSS, which then does not move with the seed.
      rc.seed = mix_seed(i < kWarmup ? 0 : seed, 0x7a6e0000ULL + i);
      d = designs::build_random_circuit(rc);
    } else {
      d = designs::build_design(t.kind);
    }
    d.netlist.set_name("t" + std::to_string(i) + "_" + t.kind);
    const std::string text = netlist::to_verilog(d.netlist);
    t.path = dir + "/t" + std::to_string(i) + ".v";
    t.nodes = d.netlist.num_nodes();
    std::ofstream out(t.path, std::ios::binary);
    if (!(out << text)) throw std::runtime_error("cannot write " + t.path);
    all.pod(serve::fnv1a64(text));
  }
  return all.value();
}

/// The fields of a score result the bitwise comparison covers.
struct ScoreOut {
  std::vector<NodeId> sites;
  std::vector<std::string> names;
  std::vector<double> proba, score;
  std::vector<int> predicted;
  bool matched = false, has_regressor = false;

  bool operator==(const ScoreOut& o) const {
    auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
      return x.size() == y.size() &&
             (x.empty() ||
              std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
    };
    return sites == o.sites && names == o.names && same(proba, o.proba) &&
           same(score, o.score) && predicted == o.predicted &&
           matched == o.matched && has_regressor == o.has_regressor;
  }
};

ScoreOut from_engine(const serve::ScoreResult& r) {
  return {r.sites,     r.node_names,      r.proba,        r.score,
          r.predicted, r.netlist_matched, r.has_regressor};
}

/// One engine request replayed layer by layer, with the public calls
/// ScoringEngine::submit -> score makes (src/serve/engine.cpp).
ScoreOut replay_score(const serve::ModelBundle& bundle, ml::GcnModel& clf,
                      ml::GcnModel& reg, const std::string& path, Spans& sp) {
  const serve::BundleManifest& m = bundle.manifest;
  const designs::Design target = sp.run("netlist.parse", [&] {
    designs::Design d = serve::load_score_target(path);
    d.netlist.validate();
    return d;
  });
  const netlist::Netlist& nl = target.netlist;
  sp.run("lint.preflight", [&] {
    if (lint::lint_netlist(nl).errors() > 0)
      throw std::runtime_error(path + ": lint preflight errors");
  });
  ScoreOut out;
  out.matched = sp.run("serve.content_hash", [&] {
    return serve::netlist_content_hash(nl) == m.netlist_hash;
  });
  const sim::SignalStats stats = sp.run("sim.golden_stats", [&] {
    return sim::estimate_by_simulation(nl, bundle.stimulus, m.probability_seed,
                                       m.probability_cycles);
  });
  graphir::CircuitGraph graph;
  const ml::Matrix x = sp.run("graphir.features", [&] {
    ml::Matrix f =
        bundle.standardizer.transform(graphir::extract_features(nl, stats));
    graph = graphir::build_graph(nl);
    return f;
  });
  sp.run("serve.assemble", [&] {
    out.sites = fault::fault_sites(nl);
    out.names.reserve(nl.num_nodes());
    for (NodeId id = 0; id < nl.num_nodes(); ++id)
      out.names.push_back(nl.node(id).name);
  });
  sp.run("ml.forward", [&] {
    clf.set_adjacency(&graph.normalized_adjacency);
    const ml::Matrix logp = clf.forward(x, false);
    out.proba = ml::class1_probability(logp);
    out.predicted = ml::predict_labels(logp);
    out.has_regressor = true;
    reg.set_adjacency(&graph.normalized_adjacency);
    const ml::Matrix pred = reg.forward(x, false);
    out.score.resize(static_cast<std::size_t>(pred.rows()));
    for (int i = 0; i < pred.rows(); ++i)
      out.score[static_cast<std::size_t>(i)] = static_cast<double>(pred(i, 0));
  });
  return out;
}

const std::vector<std::string> kScoreLayers = {
    "netlist.parse",    "lint.preflight",   "serve.content_hash",
    "sim.golden_stats", "graphir.features", "ml.forward"};

Outcome run_score(const Args& a, Report& rep) {
  // One engine worker with one request outstanding; the shared kernel pool
  // stays serial. The untimed replay check may use more threads, except
  // in a traced run, whose replay spans are the per-layer times.
  const cpu_set_t all_cpus = pin_to_current_cpu();
  util::set_num_threads(1);
  const int replay_threads =
      a.trace ? 1 : std::max(1, std::min(4, util::hardware_threads()));
  rep.meta("threads", "{\"engine_workers\":" + std::to_string(kThreads) +
                          ",\"outstanding\":1,\"pool\":1,\"replay\":" +
                          std::to_string(replay_threads) + "}");
  const auto pool_rounds =
      static_cast<std::size_t>(
          std::ceil(a.seconds * kTargetsPerSecond / double(kRound))) +
      1;
  std::string gen = "{\"rounds\":" + std::to_string(pool_rounds) +
                    ",\"round\":" + std::to_string(kRound) +
                    ",\"warmup\":[\"random " +
                    std::to_string(int(kWarmupGates)) +
                    " gates\",\"ee_zonal\"]" +
                    ",\"builtin_every\":" + std::to_string(kBuiltinEvery) +
                    ",\"builtin\":[";
  for (std::size_t i = 0; i < kBuiltinTargets.size(); ++i)
    gen += (i ? "," : "") + obs::json_string(kBuiltinTargets[i]);
  gen += "],\"random\":{\"gates\":\"quantiles of density gates^-1.5 over " +
         std::to_string(int(kMinGates)) + ".." +
         std::to_string(int(kMaxGates)) +
         "\",\"inputs\":32,\"flops\":\"gates/16\",\"outputs\":32,"
         "\"reuse_bias\":0.3}}";
  rep.meta("generator", gen);

  const std::string dir = a.workdir + "/score";
  std::filesystem::create_directories(dir);
  const std::string bundle_path = dir + "/untrained.fcm";
  // The target files and the bundle are the workload's input, written once
  // and outside set-up.
  std::vector<ScoreTarget> targets = target_specs(pool_rounds);
  const Stopwatch inputs;
  const std::uint64_t targets_hash = write_targets(dir, a.seed, targets);
  write_untrained_bundle(bundle_path);
  rep.meta("inputs_s", num(inputs.wall_s()));

  // Set-up: start an engine and load the bundle. Between requests, every
  // kGapS, a reference pass and one more set-up repetition (an engine
  // started and stopped beside the serving one), so set-up is timed at the
  // same host speeds as the requests.
  constexpr double kGapS = 0.5;
  HostSpeed host;
  OpTimes setup;
  obs::RequestTraceCollector traces(targets.size());
  traces.set_enabled(a.trace);
  auto set_up = [&] {
    const Stopwatch sw;
    serve::EngineConfig ec;
    ec.threads = kThreads;
    ec.traces = &traces;
    auto e = std::make_unique<serve::ScoringEngine>(ec);
    e->prewarm(bundle_path);
    setup.add(sw);
    return e;
  };
  auto last_gap = Clock::now();
  auto gap = [&] {
    host.sample();
    set_up();
    last_gap = Clock::now();
  };
  host.sample();
  std::unique_ptr<serve::ScoringEngine> engine = set_up();
  {
    std::ifstream in(bundle_path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    rep.meta("input_hashes", "{\"targets\":" + quoted_hex(targets_hash) +
                                 ",\"bundle\":" +
                                 quoted_hex(serve::fnv1a64(bytes.str())) + "}");
  }

  // Closed loop with one request outstanding: submit the next target as
  // soon as the last one completes, until the window closes. The client
  // blocks on its future, so the engine's worker is the only thread doing
  // work and the process CPU time of a request is the worker's.
  OpTimes served;  // entry i is request i: they run one at a time, in order
  std::vector<std::optional<ScoreOut>> engine_out(targets.size());
  std::vector<std::uint64_t> trace_of(targets.size());
  auto score = [&](std::size_t i) {
    trace_of[i] = traces.begin(bundle_path, targets[i].path);
    serve::ScoreOptions opts;
    opts.trace_id = trace_of[i];
    const Stopwatch sw;
    try {
      engine_out[i] = from_engine(
          engine->submit(bundle_path, targets[i].path, opts).get());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s: %s\n", targets[i].path.c_str(),
                   e.what());
    }
    served.add(sw);
    traces.finish(trace_of[i], engine_out[i] ? "ok" : "error");
  };
  std::size_t done = 0;
  while (done < kWarmup) score(done++);
  gap();
  // The round under way when the window closes runs to its end.
  const auto window = Clock::now();
  while (done < targets.size() &&
         (seconds_since(window) < a.seconds || (done - kWarmup) % kRound)) {
    score(done++);
    if (seconds_since(last_gap) >= kGapS) gap();
  }
  gap();
  Outcome oc;
  oc.peak_rss_mb = peak_rss_mb();
  const double cache_hit_ratio = engine->metrics().cache_hit_ratio();
  engine.reset();
  if (done == targets.size())
    std::fprintf(stderr, "perfbench: target pool drained before the window "
                         "closed\n");

  // Correctness (untimed): replay every request, warm-up included, layer
  // by layer; results must be bitwise equal to the engine's. An engine
  // error has no result, so it counts as a mismatch.
  std::vector<Spans> spans(done, Spans(a.trace));
  std::vector<char> mismatch(done, 1);  // cleared once a replay matches
  sched_setaffinity(0, sizeof all_cpus, &all_cpus);
  {
    const serve::ModelBundle bundle = serve::load_bundle_file(bundle_path);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < replay_threads; ++t)
      pool.emplace_back([&] {
        try {
          ml::GcnModel clf = ml::clone_gcn(*bundle.classifier);
          ml::GcnModel reg = ml::clone_gcn(*bundle.regressor);
          for (std::size_t i; (i = cursor.fetch_add(1)) < done;) {
            try {
              mismatch[i] = !engine_out[i] ||
                            !(replay_score(bundle, clf, reg, targets[i].path,
                                           spans[i]) == *engine_out[i]);
            } catch (const std::exception& e) {
              std::fprintf(stderr, "perfbench: replay %s: %s\n",
                           targets[i].path.c_str(), e.what());
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: replay: %s\n", e.what());
        }
      });
    for (auto& th : pool) th.join();
  }
  oc.attempted = done;
  for (const char m : mismatch) oc.failed += m ? 1 : 0;
  rep.check("score_replay_bitwise", oc.failed == 0,
            std::to_string(done - oc.failed) + "/" + std::to_string(done) +
                " engine results bitwise-equal to the layer-by-layer replay");

  // The timed requests that passed the check.
  OpTimes op;
  std::size_t nodes = 0;
  for (std::size_t i = kWarmup; i < done; ++i) {
    if (mismatch[i]) continue;
    op.cpu_ms.push_back(served.cpu_ms[i]);
    op.wall_ms.push_back(served.wall_ms[i]);
    op.span.push_back(served.span[i]);
    nodes += targets[i].nodes;
  }
  const double busy_s = sum(op.wall_ms) * 1e-3;
  add_end_to_end(rep, op, setup, host);
  rep.add1("score_req_per_s", "1/s", "higher",
           double(op.wall_ms.size()) / busy_s);
  rep.add("score_p50_ms", "ms", "lower", op.wall_ms);
  rep.add1("score_p90_ms", "ms", "lower", tail(op.wall_ms).first);
  rep.meta("requests", std::to_string(done));

  if (a.trace) {
    std::map<std::string, std::vector<double>> layer;
    // Dark time is what the engine's own request spans (queue_wait,
    // batch_assembly, bundle_load, golden_sim, forward) leave uncovered.
    std::vector<double> dark, total, service, replay_ms;
    for (std::size_t i = kWarmup; i < done; ++i) {
      const auto t = traces.find(trace_of[i]);
      if (mismatch[i] || !t) continue;
      for (const auto& k : kScoreLayers)
        layer[k + "_ms"].push_back(spans[i].get(k) * 1e3);
      double covered = 0, queue = 0, load = 0;
      for (const obs::TraceSpan& s : t->spans) {
        covered += s.dur_ms;
        if (s.name == "queue_wait") queue += s.dur_ms;
        if (s.name == "bundle_load") load += s.dur_ms;
      }
      layer["serve.queue_wait_ms"].push_back(queue);
      layer["serve.bundle_load_ms"].push_back(load);
      dark.push_back(t->total_ms - covered);
      total.push_back(t->total_ms);
      service.push_back(served.wall_ms[i] - queue);
      replay_ms.push_back(spans[i].covered() * 1e3);
    }
    for (const auto& [k, v] : layer) rep.add(k, "ms", "info", v);
    rep.add("serve.dark_ms", "ms", "info", dark);
    rep.add1("serve.bundle_cache_hit_ratio", "ratio", "info", cache_hit_ratio);
    rep.add1("serve.nodes_per_s", "1/s", "info", double(nodes) / busy_s);
    rep.add1("trace.dark_share", "ratio", "info", median(dark) / median(total));
    // The layer-by-layer replay in benchmark spans against the engine's
    // service time for the same requests.
    rep.add1("trace.overhead_ratio", "ratio", "info",
             median(replay_ms) / median(service));
  }
  std::filesystem::remove_all(dir);
  return oc;
}

// ---- main -------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: fcrit_perfbench --workload "
               "<train_ee_zonal|label_gen|score_mixed> --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--git-rev REV] "
               "[--src-digest HEX]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc % 2 == 0) return usage();
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--git-rev") a.git_rev = v;
    else if (k == "--src-digest") a.src_digest = v;
    else return usage();
  }

  Report rep;
  add_common_meta(rep, a);
  Outcome oc;
  if (a.workload == "train_ee_zonal") oc = run_train(a, rep);
  else if (a.workload == "label_gen") oc = run_label(a, rep);
  else if (a.workload == "score_mixed") oc = run_score(a, rep);
  else return usage();

  rep.add1("peak_rss_mb", "MB", "lower", oc.peak_rss_mb);
  rep.add1("error_rate", "ratio", "lower",
           oc.attempted ? double(oc.failed) / double(oc.attempted) : 1.0);
  if (a.trace)  // a layer the workload never enters spent nothing there
    for (const std::string& name : per_layer_names())
      if (!rep.find(name)) rep.add1(name, unit_of(name), "info", 0.0);
  const bool correct =
      rep.failed_checks() == 0 && oc.failed == 0 && oc.attempted > 0;
  std::printf("%s\n", rep.report_json(a.workload).c_str());
  std::printf("%s\n",
              rep.result_json(correct, oc.attempted, oc.failed,
                              a.trace ? per_layer_names() : kEndToEnd)
                  .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace fcrit::perfbench

int main(int argc, char** argv) {
  try {
    return fcrit::perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
