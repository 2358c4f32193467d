// The serve subsystem: bundle round-trips (bit-identical to the training
// pipeline), strict-validation failures, the LRU bundle cache, engine
// concurrency/determinism, and the daemon: wire protocol, BUSY admission,
// hot reload by rename, request traces and connection hygiene.
#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/designs/random_circuit.hpp"
#include "src/lint/lint.hpp"
#include "src/ml/serialize.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/obs/json.hpp"
#include "src/obs/request_trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/serve/server.hpp"

namespace fcrit::serve {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

template <typename Fn>
BundleErrorCode error_code_of(Fn&& fn) {
  try {
    fn();
  } catch (const BundleError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a BundleError";
  return BundleErrorCode::kIo;
}

/// A small random design plus a hand-assembled (untrained) bundle for it —
/// the cache/concurrency/protocol tests don't need a real pipeline run.
designs::Design tiny_design(std::uint64_t seed) {
  designs::RandomCircuitConfig cfg;
  cfg.num_inputs = 4;
  cfg.num_gates = 40;
  cfg.num_flops = 6;
  cfg.num_outputs = 4;
  cfg.seed = seed;
  return designs::build_random_circuit(cfg);
}

ModelBundle synthetic_bundle(const designs::Design& d, std::uint64_t seed) {
  ModelBundle b;
  b.manifest.design_name = d.name;
  b.manifest.netlist_hash = netlist_content_hash(d.netlist);
  b.manifest.feature_width = graphir::kNumBaseFeatures;
  b.manifest.feature_names = graphir::base_feature_names();
  b.manifest.probability_cycles = 32;
  b.manifest.probability_seed = 5;
  b.stimulus = d.stimulus;
  b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
  b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
  ml::GcnConfig cc = ml::GcnConfig::classifier();
  cc.hidden = {8};
  cc.dropout_after = -1;  // one hidden conv: no Dropout position
  cc.seed = seed;
  b.classifier = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, cc);
  ml::GcnConfig rc = ml::GcnConfig::regressor();
  rc.hidden = {8};
  rc.dropout_after = -1;
  rc.seed = seed + 1;
  b.regressor = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, rc);
  return b;
}

// ---- pipeline-backed round trip -------------------------------------------

/// One shared (fast) pipeline run packed into a bundle file.
class BundleRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig cfg;
    cfg.campaign_cycles = 64;
    cfg.probability_cycles = 128;
    cfg.train.epochs = 60;
    cfg.regressor_train.epochs = 60;
    cfg.train_baselines = false;
    core::FaultCriticalityAnalyzer analyzer(cfg);
    result_ = new core::PipelineResult(analyzer.analyze_design("or1200_icfsm"));
    bundle_path_ = new std::string(::testing::TempDir() +
                                   "fcrit_serve_icfsm.fcm");
    save_bundle_file(pack_bundle(*result_), *bundle_path_);
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    delete bundle_path_;
    bundle_path_ = nullptr;
  }

  static core::PipelineResult* result_;
  static std::string* bundle_path_;
};

core::PipelineResult* BundleRoundTrip::result_ = nullptr;
std::string* BundleRoundTrip::bundle_path_ = nullptr;

TEST_F(BundleRoundTrip, ManifestRecordsProvenance) {
  const ModelBundle b = load_bundle_file(*bundle_path_);
  EXPECT_EQ(b.manifest.design_name, "or1200_icfsm");
  EXPECT_EQ(b.manifest.netlist_hash,
            netlist_content_hash(result_->design.netlist));
  EXPECT_EQ(b.manifest.feature_width, graphir::kNumBaseFeatures);
  EXPECT_EQ(b.manifest.probability_cycles, 128);
  EXPECT_EQ(b.manifest.probability_seed, 99u);
  EXPECT_EQ(b.manifest.feature_names, graphir::base_feature_names());
  ASSERT_TRUE(b.classifier != nullptr);
  ASSERT_TRUE(b.regressor != nullptr);
  EXPECT_EQ(b.standardizer.mean, result_->standardizer.mean);
  EXPECT_EQ(b.standardizer.stddev, result_->standardizer.stddev);
}

TEST_F(BundleRoundTrip, PackScoreIsBitIdenticalToPipeline) {
  ScoringEngine engine({.threads = 1});
  const ScoreResult r =
      engine.score(*bundle_path_, designs::build_design("or1200_icfsm"));
  EXPECT_TRUE(r.netlist_matched);
  EXPECT_TRUE(r.has_regressor);
  ASSERT_EQ(r.proba.size(), result_->gcn_eval.proba.size());
  ASSERT_EQ(r.score.size(), result_->regression->predicted_score.size());
  for (std::size_t i = 0; i < r.proba.size(); ++i) {
    EXPECT_EQ(r.proba[i], result_->gcn_eval.proba[i]) << "node " << i;
    EXPECT_EQ(r.predicted[i], result_->gcn_eval.predicted[i]) << "node " << i;
    EXPECT_EQ(r.score[i], result_->regression->predicted_score[i])
        << "node " << i;
  }
}

TEST_F(BundleRoundTrip, StrictHashRejectsForeignNetlist) {
  ScoringEngine engine({.threads = 1});
  const auto foreign = designs::build_design("or1200_genpc");
  EXPECT_EQ(error_code_of([&] {
              engine.score(*bundle_path_, foreign, {.strict_hash = true});
            }),
            BundleErrorCode::kNetlistHashMismatch);
  // Without strict mode the mismatch is reported, not fatal — that's the
  // train-once/infer-on-new-netlists use case.
  const ScoreResult r = engine.score(*bundle_path_, foreign);
  EXPECT_FALSE(r.netlist_matched);
  EXPECT_EQ(r.proba.size(), foreign.netlist.num_nodes());
}

TEST_F(BundleRoundTrip, PackBoundsProbabilityCycles) {
  const int saved = result_->config.probability_cycles;
  for (const int bad : {0, -5, kMaxProbabilityCycles + 1}) {
    result_->config.probability_cycles = bad;
    EXPECT_EQ(error_code_of([&] { pack_bundle(*result_); }),
              BundleErrorCode::kMalformed)
        << bad;
  }
  result_->config.probability_cycles = saved;
}

TEST_F(BundleRoundTrip, TopSitesRanksByDescendingScore) {
  ScoringEngine engine({.threads = 1});
  const ScoreResult r =
      engine.score(*bundle_path_, designs::build_design("or1200_icfsm"));
  const auto top = top_sites(r, 5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(r.score[top[i - 1]], r.score[top[i]]);
  const auto all = top_sites(r, 0);
  EXPECT_EQ(all.size(), r.sites.size());
}

// ---- strict validation ----------------------------------------------------

TEST(BundleValidation, RejectsGarbageAndForeignArtifacts) {
  std::istringstream garbage("definitely not a bundle");
  EXPECT_EQ(error_code_of([&] { load_bundle(garbage); }),
            BundleErrorCode::kBadMagic);
  std::istringstream gcn_file("fcrit-gcn-v1\nin_features 5\n");
  EXPECT_EQ(error_code_of([&] { load_bundle(gcn_file); }),
            BundleErrorCode::kBadMagic);
  EXPECT_EQ(error_code_of([&] { load_bundle_file("/nonexistent/x.fcm"); }),
            BundleErrorCode::kIo);
}

TEST(BundleValidation, RejectsWrongFormatVersion) {
  const auto d = tiny_design(11);
  std::ostringstream os;
  save_bundle(synthetic_bundle(d, 1), os);
  std::string text = os.str();
  text.replace(text.find("fcrit-bundle-v1"), 15, "fcrit-bundle-v9");
  std::istringstream is(text);
  EXPECT_EQ(error_code_of([&] { load_bundle(is); }),
            BundleErrorCode::kBadVersion);
}

TEST(BundleValidation, RejectsTruncatedFile) {
  const auto d = tiny_design(12);
  std::ostringstream os;
  save_bundle(synthetic_bundle(d, 2), os);
  std::string text = os.str();
  text.resize(text.size() * 3 / 5);  // cut inside the classifier weights
  std::istringstream is(text);
  EXPECT_EQ(error_code_of([&] { load_bundle(is); }),
            BundleErrorCode::kTruncated);
}

/// A saved synthetic bundle with the text from the first `from` on
/// replaced by `to` (to the end of the line, or of the file when `to_end`).
std::string edited_bundle(std::uint64_t seed, const std::string& from,
                          const std::string& to, bool to_end = false) {
  std::ostringstream os;
  save_bundle(synthetic_bundle(tiny_design(seed), seed), os);
  std::string text = os.str();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  const std::size_t end = to_end ? text.size() : text.find('\n', at);
  return text.replace(at, end - at, to);
}

TEST(BundleValidation, BoundsProbabilityCycles) {
  for (const char* bad : {"-5", "0", "65537", "2147483647", "99999999999",
                          "many"}) {
    std::istringstream is(edited_bundle(
        14, "probability_cycles", std::string("probability_cycles ") + bad));
    EXPECT_EQ(error_code_of([&] { load_bundle(is); }),
              BundleErrorCode::kMalformed)
        << bad;
  }
  std::istringstream at_limit(edited_bundle(
      14, "probability_cycles",
      "probability_cycles " + std::to_string(kMaxProbabilityCycles)));
  EXPECT_EQ(load_bundle(at_limit).manifest.probability_cycles,
            kMaxProbabilityCycles);
}

TEST(BundleValidation, HugeProfileCountStopsAtTheFirstFailedRead) {
  // The stream holds one profile; the declared counts would spin for
  // seconds (1e8) or forever (2^64 - 1) if the loop trusted them.
  for (const char* count : {"100000000", "18446744073709551615"}) {
    std::istringstream is(edited_bundle(
        15, "profiles ",
        std::string("profiles ") + count + "\nin0 0.5 0 0\n", true));
    EXPECT_EQ(error_code_of([&] { load_bundle(is); }),
              BundleErrorCode::kTruncated)
        << count;
  }
  std::istringstream garbled(edited_bundle(
      15, "profiles ", "profiles 2\nin0 0.5 0 0\nin1 half 0 0\n", true));
  EXPECT_EQ(error_code_of([&] { load_bundle(garbled); }),
            BundleErrorCode::kMalformed);
}

/// Loads a synthetic bundle whose classifier header line starting with
/// `from` reads `to` instead; the load must fail as kMalformed, naming
/// `field`. Every value tried lies just past its limit, so a missing check
/// cannot make the load allocate more than a few kilobytes.
void expect_gcn_header_rejected(const std::string& from, const std::string& to,
                                const std::string& field) {
  std::istringstream is(edited_bundle(16, from, to));
  try {
    load_bundle(is);
    ADD_FAILURE() << to << ": loaded";
  } catch (const BundleError& e) {
    EXPECT_EQ(e.code(), BundleErrorCode::kMalformed) << to;
    EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
              std::string::npos)
        << to << ": " << e.what();
  }
}

TEST(BundleValidation, BoundsGcnInFeatures) {
  expect_gcn_header_rejected("in_features", "in_features 0", "in_features");
  expect_gcn_header_rejected("in_features", "in_features -7", "in_features");
  expect_gcn_header_rejected(
      "in_features",
      "in_features " + std::to_string(ml::kMaxGcnInFeatures + 1),
      "in_features");
}

TEST(BundleValidation, BoundsStandardizerWidth) {
  // The width sizes the standardizer's two vectors, so it is checked
  // before either is: neither value below allocates them.
  for (const long long width :
       {static_cast<long long>(ml::kMaxGcnInFeatures) + 1, 10000000LL}) {
    std::ostringstream os;
    save_bundle(synthetic_bundle(tiny_design(17), 17), os);
    std::string text = os.str();
    const std::string magic = "fcrit-standardizer-v1\n";
    const std::size_t at = text.find(magic);
    ASSERT_NE(at, std::string::npos);
    const std::size_t line = at + magic.size();
    text.replace(line, text.find('\n', line) - line, std::to_string(width));
    std::istringstream is(text);
    try {
      load_bundle(is);
      ADD_FAILURE() << width << ": loaded";
    } catch (const BundleError& e) {
      EXPECT_EQ(e.code(), BundleErrorCode::kMalformed) << width;
      EXPECT_NE(std::string(e.what()).find("'width'"), std::string::npos)
          << width << ": " << e.what();
    }
  }
}

TEST(BundleValidation, BoundsGcnHiddenCount) {
  expect_gcn_header_rejected("hidden ", "hidden 0", "hidden");
  expect_gcn_header_rejected(
      "hidden ",
      "hidden " + std::to_string(ml::kMaxGcnHiddenLayers + 1) + " 8",
      "hidden");
}

TEST(BundleValidation, BoundsGcnHiddenWidth) {
  expect_gcn_header_rejected("hidden ", "hidden 1 0", "hidden[0]");
  expect_gcn_header_rejected(
      "hidden ", "hidden 1 " + std::to_string(ml::kMaxGcnWidth + 1),
      "hidden[0]");
}

TEST(BundleValidation, BoundsGcnOutputDim) {
  expect_gcn_header_rejected("output_dim", "output_dim 0", "output_dim");
  expect_gcn_header_rejected("output_dim", "output_dim 3", "output_dim");
}

TEST(BundleValidation, BoundsGcnLogSoftmax) {
  expect_gcn_header_rejected("log_softmax", "log_softmax -1", "log_softmax");
  expect_gcn_header_rejected("log_softmax", "log_softmax 2", "log_softmax");
}

TEST(BundleValidation, BoundsGcnDropout) {
  expect_gcn_header_rejected("dropout ", "dropout -0.001", "dropout");
  expect_gcn_header_rejected("dropout ", "dropout 1", "dropout");
  expect_gcn_header_rejected("dropout ", "dropout nan", "dropout");
}

TEST(BundleValidation, BoundsGcnDropoutAfter) {
  // The synthetic classifier has one hidden conv: dropout_after in [-1, 0].
  expect_gcn_header_rejected("dropout_after", "dropout_after -2",
                             "dropout_after");
  expect_gcn_header_rejected("dropout_after", "dropout_after 1",
                             "dropout_after");
}

TEST(BundleValidation, RejectsFeatureWidthMismatch) {
  const auto d = tiny_design(13);
  ModelBundle narrow = synthetic_bundle(d, 3);
  narrow.standardizer.mean.pop_back();
  narrow.standardizer.stddev.pop_back();
  std::ostringstream os1;
  save_bundle(narrow, os1);
  std::istringstream is1(os1.str());
  EXPECT_EQ(error_code_of([&] { load_bundle(is1); }),
            BundleErrorCode::kFeatureWidthMismatch);

  ModelBundle wide_model = synthetic_bundle(d, 4);
  ml::GcnConfig cc = wide_model.classifier->config();
  wide_model.classifier = std::make_unique<ml::GcnModel>(
      graphir::kNumBaseFeatures + 2, cc);
  std::ostringstream os2;
  save_bundle(wide_model, os2);
  std::istringstream is2(os2.str());
  EXPECT_EQ(error_code_of([&] { load_bundle(is2); }),
            BundleErrorCode::kFeatureWidthMismatch);
}

// ---- score front end: preflight gate, content hash, stage spans -----------

// A combinational loop u1 -> u2 -> u1, and nothing else lint can report.
constexpr const char* kLoopV = R"(module looped (
  input clk,
  input a,
  output y
);
  wire w1;
  wire w2;
  AN2 u1 (.Y(w1), .A(a), .B(w2));
  IV u2 (.Y(w2), .A(w1));
  assign y = w1;
endmodule
)";

// Two instances named u1, and nothing else lint can report.
constexpr const char* kDuplicateV = R"(module dup (
  input clk,
  input a,
  input b,
  output y
);
  wire w1;
  wire w2;
  AN2 u1 (.Y(w1), .A(a), .B(b));
  IV u1 (.Y(w2), .A(w1));
  assign y = w2;
endmodule
)";

// u2 drives nothing: its only finding is a dead-gate warning.
constexpr const char* kDeadGateV = R"(module dead (
  input clk,
  input a,
  input b,
  output y
);
  wire w1;
  wire w2;
  AN2 u1 (.Y(w1), .A(a), .B(b));
  IV u2 (.Y(w2), .A(w1));
  assign y = w1;
endmodule
)";

/// lint_netlist's error findings, under the gate's target name.
lint::LintReport error_subset(const netlist::Netlist& nl,
                              const std::string& target) {
  lint::LintReport errors;
  errors.target_name = target;
  for (const lint::Diagnostic& d : lint::lint_netlist(nl).diagnostics)
    if (d.severity == lint::Severity::kError) errors.add(d);
  return errors;
}

TEST(PreflightGate, BothGatesRejectLoopsAndDuplicateNamesWithTheErrorSubset) {
  const std::string dir = ::testing::TempDir() + "fcrit_preflight";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(71);
  const std::string bundle = dir + "/tiny.fcm";
  save_bundle_file(synthetic_bundle(d, 3), bundle);
  ScoringEngine engine({.threads = 1});
  core::PipelineConfig cfg;
  cfg.train_baselines = false;
  const core::FaultCriticalityAnalyzer analyzer(cfg);

  for (const auto& [file, rule] :
       {std::pair{"loop.v", "comb-loop"},
        std::pair{"dup.v", "duplicate-name"}}) {
    const std::string path = dir + "/" + file;
    write_file(path, file == std::string("loop.v") ? kLoopV : kDuplicateV);
    const designs::Design target = load_score_target(path);
    const lint::LintReport want = error_subset(target.netlist, path);
    ASSERT_GT(want.errors(), 0u) << file;
    EXPECT_EQ(want.diagnostics.front().rule_id, rule);

    try {
      engine.score_path(bundle, path);
      ADD_FAILURE() << "engine scored " << file;
    } catch (const lint::LintError& e) {
      EXPECT_EQ(e.report().to_json(), want.to_json()) << file;
    }
    try {
      (void)analyzer.analyze(target);
      ADD_FAILURE() << "analyze ran on " << file;
    } catch (const lint::LintError& e) {
      EXPECT_EQ(e.report().to_json(), want.to_json()) << file;
    }
  }
  EXPECT_EQ(engine.metrics().errors, 2u);
}

TEST(PreflightGate, DeadGateWarningsStillScore) {
  const std::string dir = ::testing::TempDir() + "fcrit_preflight_dead";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(72);
  save_bundle_file(synthetic_bundle(d, 4), dir + "/tiny.fcm");
  const std::string path = dir + "/dead.v";
  write_file(path, kDeadGateV);
  const designs::Design target = load_score_target(path);
  const lint::LintReport full = lint::lint_netlist(target.netlist);
  ASSERT_EQ(full.errors(), 0u) << full.to_string();
  ASSERT_GT(full.warnings(), 0u);
  for (const lint::Diagnostic& f : full.diagnostics)
    EXPECT_EQ(f.rule_id, "dead-gate") << full.to_string();

  ScoringEngine engine({.threads = 1});
  const ScoreResult r = engine.score_path(dir + "/tiny.fcm", path);
  EXPECT_EQ(r.proba.size(), target.netlist.num_nodes());
}

// Lint-clean netlists whose hash the export -> parse -> export round trip
// could not compute: an input port named like a writer wire, a .bench
// input named clk (the writer's implicit clock) and a .bench input whose
// name is not a Verilog identifier.
TEST(ContentHash, LintCleanTargetsTheRoundTripRejectedScore) {
  const std::string dir = ::testing::TempDir() + "fcrit_hash_targets";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(73);
  const std::string bundle = dir + "/tiny.fcm";
  save_bundle_file(synthetic_bundle(d, 5), bundle);
  write_file(dir + "/port_n_1.v", R"(module port_n_1 (
  input clk,
  input n_1,
  output y
);
  wire w1;
  wire w2;
  IV u1 (.Y(w1), .A(n_1));
  IV u2 (.Y(w2), .A(w1));
  assign y = w2;
endmodule
)");
  write_file(dir + "/clk_input.bench",
             "INPUT(clk)\nINPUT(a)\nOUTPUT(y)\nn1 = AND(clk, a)\n"
             "y = NOT(n1)\n");
  write_file(dir + "/dotted.bench",
             "INPUT(a.1)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a.1, b)\n");

  ScoringEngine engine({.threads = 1});
  for (const char* file : {"port_n_1.v", "clk_input.bench", "dotted.bench"}) {
    const std::string path = dir + "/" + file;
    const designs::Design target = load_score_target(path);
    EXPECT_EQ(lint::lint_netlist(target.netlist).errors(), 0u) << file;
    ScoreResult r;
    EXPECT_NO_THROW(r = engine.score_path(bundle, path)) << file;
    EXPECT_EQ(r.proba.size(), target.netlist.num_nodes()) << file;
    EXPECT_FALSE(r.netlist_matched) << file;
  }
}

TEST(EngineSpans, StagesTileTheRequestWithoutOverlap) {
  const std::string dir = ::testing::TempDir() + "fcrit_stage_spans";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(74);
  save_bundle_file(synthetic_bundle(d, 6), dir + "/tiny.fcm");
  obs::RequestTraceCollector traces(4);
  traces.set_enabled(true);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine(ec);
  const std::uint64_t id = traces.begin(dir + "/tiny.fcm", d.name);
  ScoreOptions opts;
  opts.trace_id = id;
  engine.score(dir + "/tiny.fcm", d, opts);
  traces.finish(id, "ok");

  const auto trace = traces.find(id);
  ASSERT_TRUE(trace.has_value());
  const std::vector<std::string> stages = {
      "bundle_load", "lint", "content_hash", "golden_sim", "features",
      "forward"};
  ASSERT_EQ(trace->spans.size(), stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const obs::TraceSpan& s = trace->spans[i];
    EXPECT_EQ(s.name, stages[i]);
    EXPECT_GE(s.dur_ms, 0.0) << s.name;
    if (i == 0) continue;
    const obs::TraceSpan& prev = trace->spans[i - 1];
    // No overlap; from lint on, each stage starts where the last ended.
    EXPECT_GE(s.start_ms + 1e-9, prev.start_ms + prev.dur_ms) << s.name;
    if (i > 1) {
      EXPECT_NEAR(s.start_ms, prev.start_ms + prev.dur_ms, 1e-6) << s.name;
    }
  }
}

TEST(EngineSpans, TimingFieldsAreTheirSpans) {
  // ScoreResult's stage times come from the clock readings that bound the
  // traced spans: forward_seconds is the forward span, stats_seconds the
  // golden_sim and features spans together.
  const std::string dir = ::testing::TempDir() + "fcrit_timing_spans";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(75);
  save_bundle_file(synthetic_bundle(d, 7), dir + "/tiny.fcm");
  obs::RequestTraceCollector traces(4);
  traces.set_enabled(true);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine(ec);
  const std::uint64_t id = traces.begin(dir + "/tiny.fcm", d.name);
  ScoreOptions opts;
  opts.trace_id = id;
  const ScoreResult r = engine.score(dir + "/tiny.fcm", d, opts);
  traces.finish(id, "ok");

  const auto trace = traces.find(id);
  ASSERT_TRUE(trace.has_value());
  auto span_ms = [&](const std::string& name) {
    for (const obs::TraceSpan& s : trace->spans)
      if (s.name == name) return s.dur_ms;
    ADD_FAILURE() << "no span " << name;
    return -1.0;
  };
  EXPECT_NEAR(r.forward_seconds * 1e3, span_ms("forward"), 1e-9);
  EXPECT_NEAR(r.stats_seconds * 1e3,
              span_ms("golden_sim") + span_ms("features"), 1e-9);
  EXPECT_GT(r.forward_seconds, 0.0);
  EXPECT_GT(r.stats_seconds, 0.0);
}

// ---- LRU cache ------------------------------------------------------------

TEST(BundleCacheTest, LruEvictsLeastRecentlyUsed) {
  const std::string dir = ::testing::TempDir();
  const auto d1 = tiny_design(21);
  const auto d2 = tiny_design(22);
  const std::string p1 = dir + "fcrit_cache_a.fcm";
  const std::string p2 = dir + "fcrit_cache_b.fcm";
  save_bundle_file(synthetic_bundle(d1, 5), p1);
  save_bundle_file(synthetic_bundle(d2, 6), p2);

  BundleCache cache(1);
  cache.get(p1);                 // miss
  cache.get(p1);                 // hit
  cache.get(p2);                 // miss, evicts p1
  cache.get(p1);                 // miss again
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 1u);

  BundleCache roomy(2);
  roomy.get(p1);
  roomy.get(p2);
  roomy.get(p1);
  roomy.get(p2);
  EXPECT_EQ(roomy.hits(), 2u);
  EXPECT_EQ(roomy.misses(), 2u);
}

TEST(BundleCacheTest, IdenticalBytesShareOneEntry) {
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(23);
  const std::string p1 = dir + "fcrit_cache_c1.fcm";
  const std::string p2 = dir + "fcrit_cache_c2.fcm";
  save_bundle_file(synthetic_bundle(d, 7), p1);
  write_file(p2, read_file(p1));  // same content, different path

  BundleCache cache(4);
  cache.get(p1);
  cache.get(p2);  // content hash matches -> hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- engine concurrency ---------------------------------------------------

TEST(ScoringEngineTest, ConcurrentCacheThrashIsDeterministic) {
  const std::string dir = ::testing::TempDir();
  constexpr int kBundles = 3;
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;

  std::vector<std::string> bundle_paths;
  std::vector<designs::Design> targets;
  for (int i = 0; i < kBundles; ++i) {
    const auto d = tiny_design(static_cast<std::uint64_t>(31 + i));
    const std::string path =
        dir + "fcrit_thrash_" + std::to_string(i) + ".fcm";
    save_bundle_file(synthetic_bundle(d, static_cast<std::uint64_t>(i)),
                     path);
    bundle_paths.push_back(path);
    targets.push_back(d);
  }

  // Single-threaded reference results.
  std::vector<ScoreResult> reference;
  {
    ScoringEngine ref_engine({.threads = 1});
    for (int i = 0; i < kBundles; ++i)
      reference.push_back(ref_engine.score(bundle_paths[i], targets[i]));
  }

  // Cache capacity below the bundle count forces continuous eviction.
  ScoringEngine engine(
      {.threads = 8, .queue_capacity = 16, .cache_capacity = 2});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const int i = (c + k) % kBundles;
        const ScoreResult r = engine.score(bundle_paths[i], targets[i]);
        if (r.proba != reference[i].proba ||
            r.score != reference[i].score ||
            r.predicted != reference[i].predicted)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.completed, m.requests);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.requests);
  EXPECT_GT(m.cache_hits, 0u);
  EXPECT_GE(m.cache_misses, static_cast<std::uint64_t>(kBundles));
}

TEST(ScoringEngineTest, HammerOneBundleFromManyThreads) {
  // Regression for the shared-model hazard: every worker scores the SAME
  // bundle concurrently, all eight on the bundle's one pair of models
  // through the const infer(), so under the sanitizer matrix (ASan/TSan
  // CI) this must be race-free, and every result must equal the
  // single-threaded reference exactly.
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(151);
  const std::string path = dir + "fcrit_hammer.fcm";
  save_bundle_file(synthetic_bundle(d, 5), path);

  ScoreResult reference;
  {
    ScoringEngine ref_engine({.threads = 1});
    reference = ref_engine.score(path, d);
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 8;
  ScoringEngine engine({.threads = 8, .queue_capacity = 32});
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int k = 0; k < kPerClient; ++k) {
        try {
          const ScoreResult r = engine.score(path, d);
          if (r.proba != reference.proba || r.score != reference.score ||
              r.predicted != reference.predicted)
            mismatches.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.errors, 0u);
}

TEST(ScoringEngineTest, ZeroCacheCapacityIsClampedToOne) {
  // Regression: capacity 0 used to degenerate BundleCache into
  // parse-every-request (misses only) while threads/queue were clamped.
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(77);
  const std::string path = dir + "fcrit_capacity0.fcm";
  save_bundle_file(synthetic_bundle(d, 77), path);

  ScoringEngine engine(
      {.threads = 0, .queue_capacity = 0, .cache_capacity = 0});
  EXPECT_EQ(engine.config().cache_capacity, 1u);
  EXPECT_EQ(engine.config().threads, 1);
  EXPECT_EQ(engine.config().queue_capacity, 1u);

  const ScoreResult r1 = engine.score(path, d);
  const ScoreResult r2 = engine.score(path, d);
  EXPECT_EQ(r1.proba, r2.proba);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.cache_misses, 1u);  // second request hits the one-slot cache
  EXPECT_EQ(m.cache_hits, 1u);
}

TEST(ScoringEngineTest, ShutdownDrainsQueuedJobs) {
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(41);
  const std::string path = dir + "fcrit_drain.fcm";
  save_bundle_file(synthetic_bundle(d, 9), path);
  const std::string netlist_path = dir + "fcrit_drain.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  auto engine = std::make_unique<ScoringEngine>(
      EngineConfig{.threads = 2, .queue_capacity = 4});
  std::vector<std::future<ScoreResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(engine->submit(path, netlist_path));
  engine->shutdown();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(engine->submit(path, netlist_path), std::runtime_error);
  const MetricsSnapshot m = engine->metrics();
  EXPECT_EQ(m.completed, 8u);
  EXPECT_GT(m.queue_high_water, 0u);
}

// ---- admission deadlines -------------------------------------------------

TEST(ScoringEngineTest, SubmitDeadlineTimesOutWithTypedError) {
  // Regression (PR 6): submit() used to block forever on a full queue;
  // the deadline turns that into EngineError(kQueueTimeout).
  const std::string dir = ::testing::TempDir();
  const auto d = tiny_design(87);
  const std::string path = dir + "fcrit_deadline.fcm";
  save_bundle_file(synthetic_bundle(d, 16), path);
  const std::string netlist_path = dir + "fcrit_deadline.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> hook_calls{0};
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 1;
  cfg.before_score_hook = [&](const std::string&) {
    if (hook_calls.fetch_add(1) == 0) released.wait();
  };
  ScoringEngine engine(cfg);

  auto f1 = engine.submit(path, netlist_path);  // dequeued, parked in hook
  while (hook_calls.load() == 0) std::this_thread::yield();
  auto f2 = engine.submit(path, netlist_path);  // fills the 1-slot queue
  try {
    engine.submit(path, netlist_path, {},
                  std::chrono::milliseconds(50));
    FAIL() << "expected EngineError(kQueueTimeout)";
  } catch (const EngineError& e) {
    EXPECT_EQ(e.code(), EngineErrorCode::kQueueTimeout);
  }
  EXPECT_EQ(engine.metrics().submit_timeouts, 1u);

  release.set_value();
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
}

// ---- daemon wire protocol -------------------------------------------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::string request(int fd, const std::string& line) {
  const std::string out = line + "\n";
  EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
  std::string acc;
  char ch = 0;
  while (acc != ".\n" &&
         (acc.size() < 3 || acc.compare(acc.size() - 3, 3, "\n.\n") != 0)) {
    if (::recv(fd, &ch, 1, 0) <= 0) break;
    acc.push_back(ch);
  }
  return acc;
}

TEST(ServerTest, ProtocolSessionWithCacheHitsAndGracefulStop) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_bundles";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(51);
  save_bundle_file(synthetic_bundle(d, 10), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  ScoringEngine engine({.threads = 2});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  server.start();
  ASSERT_GT(server.port(), 0);

  // Two concurrent clients; the single bundle resolves implicitly.
  const int fd1 = connect_to(server.port());
  const int fd2 = connect_to(server.port());
  const std::string r1 = request(fd1, "SCORE " + netlist_path + " 3");
  const std::string r2 = request(fd2, "SCORE tiny.fcm " + netlist_path);
  EXPECT_EQ(r1.substr(0, 2), "OK");
  EXPECT_EQ(r2.substr(0, 2), "OK");
  EXPECT_NE(r1.find("matched=1"), std::string::npos);
  EXPECT_NE(r1.find("top=3"), std::string::npos);

  const std::string stats = request(fd1, "STATS");
  EXPECT_NE(stats.find("requests=2"), std::string::npos);
  EXPECT_NE(stats.find("cache_hits=1"), std::string::npos);
  EXPECT_NE(stats.find("cache_misses=1"), std::string::npos);

  EXPECT_EQ(request(fd1, "NONSENSE").substr(0, 3), "ERR");
  EXPECT_EQ(request(fd2, "QUIT").substr(0, 3), "BYE");
  ::close(fd2);

  // fd1 is still connected; stop() must drain it gracefully.
  server.stop();
  EXPECT_FALSE(server.running());
  ::close(fd1);
}

TEST(ServerTest, MetricsCommandReturnsWellFormedJson) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_metrics";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(61);
  save_bundle_file(synthetic_bundle(d, 11), dir + "/tiny.fcm");

  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  (void)engine.score(dir + "/tiny.fcm", d);  // miss
  (void)engine.score(dir + "/tiny.fcm", d);  // hit

  const std::string reply = server.handle_line("METRICS");
  ASSERT_GE(reply.size(), 4u);
  EXPECT_EQ(reply.substr(reply.size() - 3), "\n.\n");
  const std::string body = reply.substr(0, reply.size() - 3);
  EXPECT_EQ(body.front(), '{');
  EXPECT_TRUE(obs::json_valid(body)) << body;
  for (const char* key :
       {"\"uptime_seconds\"", "\"requests\"", "\"request_ms\"", "\"p50\"",
        "\"p99\"", "\"cache_hit_ratio\"", "\"queue_depth\""})
    EXPECT_NE(body.find(key), std::string::npos) << key;

  // The registry-backed snapshot is coherent (the torn-read regression).
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.requests, 2u);
  EXPECT_EQ(m.request_ms.count, 2u);
  EXPECT_LE(m.request_ms.mean(), m.request_ms.max + 1e-9);
  EXPECT_DOUBLE_EQ(m.cache_hit_ratio(), 0.5);
  EXPECT_GE(m.uptime_seconds, 0.0);
}

TEST(ServerTest, TraceVerbReturnsSpansForScoredRequests) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_trace";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(62);
  save_bundle_file(synthetic_bundle(d, 12), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  obs::RequestTraceCollector traces(16);
  traces.set_enabled(true);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine(ec);
  Server server(engine, {.bundle_dir = dir, .port = 0});

  // Client-supplied id: the OK header echoes it back.
  const std::string r1 = server.handle_line("SCORE " + netlist_path + " id=7");
  ASSERT_EQ(r1.substr(0, 2), "OK") << r1;
  EXPECT_NE(r1.find(" trace=7"), std::string::npos) << r1;

  // Server-assigned id: extract it from the header, then look it up.
  const std::string r2 = server.handle_line("SCORE " + netlist_path);
  const std::size_t at = r2.find(" trace=");
  ASSERT_NE(at, std::string::npos) << r2;
  const std::string id = r2.substr(at + 7, r2.find('\n') - at - 7);

  for (const std::string& lookup : {std::string("7"), id}) {
    const std::string reply = server.handle_line("TRACE " + lookup);
    ASSERT_EQ(reply.substr(reply.size() - 3), "\n.\n") << reply;
    const std::string body = reply.substr(0, reply.size() - 3);
    EXPECT_TRUE(obs::json_valid(body)) << body;
    EXPECT_NE(body.find("\"id\":\"" + lookup + "\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"verdict\":\"ok\""), std::string::npos);
    // The per-stage story every trace must tell (docs/OBSERVABILITY.md).
    for (const char* span :
         {"\"queue_wait\"", "\"parse\"", "\"bundle_load\"", "\"lint\"",
          "\"content_hash\"", "\"golden_sim\"", "\"features\"",
          "\"forward\""})
      EXPECT_NE(body.find(span), std::string::npos) << span << " in " << body;
  }
  // The second request hit the bundle cache; the first parsed.
  EXPECT_NE(server.handle_line("TRACE 7").find("\"detail\":\"parse\""),
            std::string::npos);
  EXPECT_NE(server.handle_line("TRACE " + id).find("\"detail\":\"cache-hit\""),
            std::string::npos);

  const std::string last = server.handle_line("TRACE LAST 2");
  const std::string last_body = last.substr(0, last.size() - 3);
  EXPECT_TRUE(obs::json_valid(last_body)) << last_body;
  EXPECT_NE(last_body.find("\"count\":2"), std::string::npos);

  // Failed requests trace too, with the error recorded.
  const std::string bad =
      server.handle_line("SCORE " + dir + "/missing.v id=9");
  EXPECT_EQ(bad.substr(0, 3), "ERR");
  const std::string bad_trace = server.handle_line("TRACE 9");
  EXPECT_NE(bad_trace.find("\"verdict\":\"error\""), std::string::npos)
      << bad_trace;

  EXPECT_EQ(server.handle_line("TRACE 123456").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("TRACE").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("TRACE notanumber").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("SCORE " + netlist_path + " id=0")
                .substr(0, 3),
            "ERR")
      << "id=0 is reserved for untraced requests";
}

TEST(ServerTest, MetricsCarriesServerObjectAndTakesNoArgument) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_server_obj";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(63);
  save_bundle_file(synthetic_bundle(d, 13), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  obs::RequestTraceCollector traces(16);
  traces.set_enabled(true);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine(ec);
  Server server(engine, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server.handle_line("SCORE " + netlist_path).substr(0, 2), "OK");

  const std::string metrics = server.handle_line("METRICS");
  const std::string body = metrics.substr(0, metrics.size() - 3);
  ASSERT_TRUE(obs::json_valid(body)) << body;
  // The "server" object spliced in front of the engine's metrics holds
  // uptime_seconds and trace_ring, nothing else: it closes right after
  // the ring's last field, where the engine's own fields begin.
  EXPECT_EQ(body.find("{\"server\":{\"uptime_seconds\":"), 0u) << body;
  EXPECT_NE(body.find("\"trace_ring\":{\"enabled\":true"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"occupancy\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"capacity\":16"), std::string::npos);
  EXPECT_NE(body.find("\"dropped\":0}},\"uptime_seconds\":"),
            std::string::npos)
      << body;
  EXPECT_EQ(body.find("\"exporter\""), std::string::npos) << body;

  // METRICS is the one metrics payload: any argument is an error.
  for (const char* line : {"METRICS PROM", "METRICS X"})
    EXPECT_EQ(server.handle_line(line).substr(0, 4), "ERR ") << line;
}

TEST(ServerTest, UntracedEngineStillServesAndTraceVerbExplains) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_notrace";
  std::filesystem::create_directories(dir);
  const auto d = tiny_design(64);
  save_bundle_file(synthetic_bundle(d, 14), dir + "/tiny.fcm");
  const std::string netlist_path = dir + "/tiny.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  // No collector wired at all: SCORE works, emits no trace= token, and
  // METRICS reports the ring as absent.
  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  const std::string r = server.handle_line("SCORE " + netlist_path);
  EXPECT_EQ(r.substr(0, 2), "OK");
  EXPECT_EQ(r.find(" trace="), std::string::npos) << r;
  EXPECT_EQ(server.handle_line("TRACE 1").substr(0, 3), "ERR");
  EXPECT_NE(server.handle_line("METRICS").find("\"trace_ring\":null"),
            std::string::npos);

  // Collector present but disabled: the hot path stays id == 0.
  obs::RequestTraceCollector traces(8);
  EngineConfig ec;
  ec.threads = 1;
  ec.traces = &traces;
  ScoringEngine engine2(ec);
  Server server2(engine2, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server2.handle_line("SCORE " + netlist_path).substr(0, 2), "OK");
  EXPECT_EQ(traces.ring_size(), 0u);
  EXPECT_NE(server2.handle_line("METRICS").find("\"enabled\":false"),
            std::string::npos);
}

TEST(ServerTest, HandleLineReportsUsageErrors) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_empty";
  std::filesystem::create_directories(dir);
  obs::RequestTraceCollector traces(4);
  traces.set_enabled(true);
  ScoringEngine engine({.threads = 1, .traces = &traces});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server.handle_line("SCORE").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("SCORE missing.fcm x.v").substr(0, 3), "ERR");
  EXPECT_EQ(server.handle_line("SCORE only.v").substr(0, 3), "ERR")
      << "empty bundle dir cannot resolve an implicit bundle";
  EXPECT_EQ(server.handle_line("STATS").substr(0, 2), "OK");

  // Ids and counts are nonzero decimal digit strings that fit in 64 bits:
  // no sign, no wrap-around to 2^64-1, no hex, no empty value.
  for (const char* bad :
       {"id=-1", "id=+5", "id=0", "id=", "id=0x10", "id=7x",
        "id=99999999999999999999", "id=18446744073709551616"}) {
    EXPECT_THROW(parse_score_request({"x.v", bad}), std::runtime_error)
        << bad;
    const std::string reply = server.handle_line(std::string("SCORE x.v ") +
                                                 bad);
    EXPECT_EQ(reply.rfind("ERR bad trace id", 0), 0u) << bad << ": " << reply;
  }
  EXPECT_EQ(parse_score_request({"x.v", "id=18446744073709551615"}).trace_id,
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"-1", "+1", "0", "1e3", "99999999999999999999"}) {
    const std::string reply = server.handle_line(std::string("TRACE ") + bad);
    EXPECT_EQ(reply.rfind("ERR TRACE: bad trace id", 0), 0u)
        << bad << ": " << reply;
    const std::string last =
        server.handle_line(std::string("TRACE LAST ") + bad);
    EXPECT_EQ(last.rfind("ERR TRACE LAST: bad count", 0), 0u)
        << bad << ": " << last;
  }
  EXPECT_EQ(server.handle_line("TRACE LAST 18446744073709551615").substr(0, 9),
            "{\"count\":");
}

// ---- BUSY admission, hot reload, traces -----------------------------------

/// A fresh, empty temp directory (TempDir is shared across the suite and
/// across runs, so stale bundles must not leak into a test).
std::string make_bundle_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "fcrit_srv_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Copy `from` beside `to` and rename it over `to`: the atomic replacement
/// docs/SERVING.md prescribes, so a reader sees the old or the new bytes.
void replace_by_rename(const std::string& from, const std::string& to) {
  const std::string staging = to + ".staging";
  std::filesystem::copy_file(from, staging,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::rename(staging, to);
}

std::string trace_id_of(const std::string& ok_response) {
  const std::size_t at = ok_response.find(" trace=");
  EXPECT_NE(at, std::string::npos) << ok_response;
  if (at == std::string::npos) return "";
  const std::size_t end = ok_response.find('\n', at);
  return ok_response.substr(at + 7, end - at - 7);
}

TEST(ServerTest, FullQueueAnswersBusyAndQueuedRequestsComplete) {
  const std::string dir = make_bundle_dir("busy");
  const auto d = tiny_design(131);
  save_bundle_file(synthetic_bundle(d, 11), dir + "/b.fcm");
  const std::string netlist_path = dir + "/b.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> hook_calls{0};
  obs::RequestTraceCollector traces(16);
  traces.set_enabled(true);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 2;
  cfg.before_score_hook = [&](const std::string&) {
    if (hook_calls.fetch_add(1) == 0) released.wait();
  };
  cfg.traces = &traces;
  ScoringEngine engine(cfg);
  Server server(engine, {.bundle_dir = dir, .port = 0});

  // Park the only worker on the first request, then fill the queue.
  std::vector<std::string> replies(3);
  std::vector<std::thread> clients;
  clients.emplace_back(
      [&] { replies[0] = server.handle_line("SCORE " + netlist_path); });
  while (hook_calls.load() == 0) std::this_thread::yield();
  for (std::size_t i = 1; i < replies.size(); ++i)
    clients.emplace_back([&, i] {
      replies[i] = server.handle_line("SCORE " + netlist_path);
    });
  while (engine.metrics().queue_depth < cfg.queue_capacity)
    std::this_thread::yield();

  // A full queue sheds at once instead of parking the connection.
  const std::string busy = server.handle_line("SCORE " + netlist_path +
                                              " id=77");
  EXPECT_EQ(busy.rfind("BUSY ", 0), 0u) << busy;
  EXPECT_EQ(busy.substr(busy.size() - 3), "\n.\n") << busy;
  EXPECT_EQ(engine.metrics().submit_timeouts, 1u);
  const std::string shed = server.handle_line("TRACE 77");
  EXPECT_NE(shed.find("\"verdict\":\"shed\""), std::string::npos) << shed;

  release.set_value();
  for (auto& t : clients) t.join();
  for (const std::string& r : replies) EXPECT_EQ(r.substr(0, 2), "OK") << r;
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_LE(m.queue_high_water, cfg.queue_capacity);
}

TEST(ServerTest, BundleReplacedByRenameIsServedOnTheNextScore) {
  const std::string dir = make_bundle_dir("reload");
  const std::string versions = make_bundle_dir("reload_versions");
  const auto d = tiny_design(141);
  const std::string v1 = versions + "/v1.fcm";
  const std::string v2 = versions + "/v2.fcm";
  save_bundle_file(synthetic_bundle(d, 21), v1);
  save_bundle_file(synthetic_bundle(d, 22), v2);
  const std::string netlist_path = dir + "/model.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));
  const std::string live = dir + "/model.fcm";
  replace_by_rename(v1, live);

  ScoringEngine ref({.threads = 1});
  const std::string expect_v1 =
      format_score_response(ref.score_path(v1, netlist_path), 5);
  const std::string expect_v2 =
      format_score_response(ref.score_path(v2, netlist_path), 5);
  ASSERT_NE(expect_v1, expect_v2) << "the two versions must score apart";

  ScoringEngine engine({.threads = 2});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  EXPECT_EQ(server.handle_line("SCORE model " + netlist_path + " 5"),
            expect_v1);
  EXPECT_EQ(server.handle_line("SCORE model " + netlist_path + " 5"),
            expect_v1);
  EXPECT_EQ(engine.metrics().cache_misses, 1u);

  // New weights under the same name: the next request re-reads the file,
  // misses the content-keyed cache once, and serves the new version.
  replace_by_rename(v2, live);
  EXPECT_EQ(server.handle_line("SCORE model " + netlist_path + " 5"),
            expect_v2);
  EXPECT_EQ(server.handle_line("SCORE model.fcm " + netlist_path + " 5"),
            expect_v2);
  EXPECT_EQ(engine.metrics().cache_misses, 2u);

  // A bundle added while the server runs resolves and serves.
  const auto d2 = tiny_design(142);
  const std::string v3 = versions + "/second.fcm";
  save_bundle_file(synthetic_bundle(d2, 23), v3);
  replace_by_rename(v3, dir + "/second.fcm");
  const std::string netlist2 = dir + "/second.v";
  write_file(netlist2, netlist::to_verilog(d2.netlist));
  const std::string second =
      server.handle_line("SCORE second " + netlist2 + " 5");
  EXPECT_EQ(second, format_score_response(ref.score_path(v3, netlist2), 5));
  EXPECT_NE(second.find(" nodes=" + std::to_string(d2.netlist.num_nodes())),
            std::string::npos)
      << second;
}

TEST(ServerTest, RenameSwapUnderLoadServesOneVersionPerRequest) {
  // Four clients keep scoring while another thread swaps two versions of
  // one bundle by rename: no request may fail, and every body must be one
  // version's solo result, never a mix or a half-read file.
  const std::string dir = make_bundle_dir("swap");
  const std::string versions = make_bundle_dir("swap_versions");
  const auto d = tiny_design(145);
  const std::string va = versions + "/a.fcm";
  const std::string vb = versions + "/b.fcm";
  save_bundle_file(synthetic_bundle(d, 31), va);
  save_bundle_file(synthetic_bundle(d, 32), vb);
  const std::string netlist_path = dir + "/hot.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));
  const std::string live = dir + "/hot.fcm";
  replace_by_rename(va, live);

  ScoringEngine ref({.threads = 1});
  const std::set<std::string> expected = {
      format_score_response(ref.score_path(va, netlist_path), 3),
      format_score_response(ref.score_path(vb, netlist_path), 3)};
  ASSERT_EQ(expected.size(), 2u);

  ScoringEngine engine({.threads = 4});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::atomic<int> clients_done{0};
  std::atomic<int> errors{0};
  std::atomic<int> foreign{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      const int fd = connect_to(server.port());
      for (int k = 0; k < kPerClient; ++k) {
        const std::string reply =
            request(fd, "SCORE hot " + netlist_path + " 3");
        if (reply.rfind("ERR", 0) == 0) errors.fetch_add(1);
        if (expected.count(reply) == 0) foreign.fetch_add(1);
      }
      request(fd, "QUIT");
      ::close(fd);
      clients_done.fetch_add(1);
    });
  int swaps = 0;
  while (clients_done.load() < kClients) {
    replace_by_rename(swaps % 2 == 0 ? vb : va, live);
    ++swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : clients) t.join();
  server.stop();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_GT(swaps, 1);
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.errors, 0u);
}

TEST(ServerTest, ResolveBundleTokenForms) {
  const std::string dir = make_bundle_dir("resolve");
  const auto d = tiny_design(111);
  save_bundle_file(synthetic_bundle(d, 7), dir + "/only.fcm");

  EXPECT_EQ(resolve_bundle_token(dir, ""), dir + "/only.fcm");
  EXPECT_EQ(resolve_bundle_token(dir, "only"), dir + "/only.fcm");
  EXPECT_EQ(resolve_bundle_token(dir, "only.fcm"), dir + "/only.fcm");
  // A token with '/' is a path, taken as is (it need not be in the dir).
  const std::string elsewhere = make_bundle_dir("resolve_elsewhere");
  save_bundle_file(synthetic_bundle(d, 8), elsewhere + "/other.fcm");
  EXPECT_EQ(resolve_bundle_token(dir, elsewhere + "/other.fcm"),
            elsewhere + "/other.fcm");
  EXPECT_THROW(resolve_bundle_token(dir, "absent"), std::runtime_error);
  EXPECT_THROW(resolve_bundle_token(dir, elsewhere + "/absent.fcm"),
               std::runtime_error);
  // An implicit bundle needs exactly one in the directory.
  save_bundle_file(synthetic_bundle(d, 9), dir + "/second.fcm");
  EXPECT_THROW(resolve_bundle_token(dir, ""), std::runtime_error);
}

TEST(ServerTest, ConcurrentScoresEachHaveARetrievableTrace) {
  const std::string dir = make_bundle_dir("trace5");
  const auto d = tiny_design(161);
  save_bundle_file(synthetic_bundle(d, 41), dir + "/hot.fcm");
  const std::string netlist_path = dir + "/hot.v";
  write_file(netlist_path, netlist::to_verilog(d.netlist));

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> hook_calls{0};
  obs::RequestTraceCollector traces(16);
  traces.set_enabled(true);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.before_score_hook = [&](const std::string&) {
    if (hook_calls.fetch_add(1) == 0) released.wait();
  };
  cfg.traces = &traces;
  ScoringEngine engine(cfg);
  Server server(engine, {.bundle_dir = dir, .port = 0});

  // Park the worker on the first request so the other four queue behind
  // it: every trace then has a real queue_wait.
  constexpr std::size_t kRequests = 5;
  std::vector<std::string> replies(kRequests);
  std::vector<std::thread> clients;
  clients.emplace_back(
      [&] { replies[0] = server.handle_line("SCORE " + netlist_path); });
  while (hook_calls.load() == 0) std::this_thread::yield();
  for (std::size_t i = 1; i < kRequests; ++i)
    clients.emplace_back([&, i] {
      replies[i] = server.handle_line("SCORE " + netlist_path);
    });
  while (engine.metrics().queue_depth < kRequests - 1)
    std::this_thread::yield();
  release.set_value();
  for (auto& t : clients) t.join();

  std::set<std::string> ids;
  for (const std::string& r : replies) {
    ASSERT_EQ(r.substr(0, 2), "OK") << r;
    const std::string id = trace_id_of(r);
    ASSERT_FALSE(id.empty());
    ids.insert(id);
    const std::string reply = server.handle_line("TRACE " + id);
    ASSERT_NE(reply.substr(0, 3), "ERR") << reply;
    const std::string body = reply.substr(0, reply.size() - 3);
    ASSERT_TRUE(obs::json_valid(body)) << body;
    EXPECT_NE(body.find("\"id\":\"" + id + "\""), std::string::npos);
    EXPECT_NE(body.find("\"verdict\":\"ok\""), std::string::npos) << body;
    for (const char* span :
         {"\"queue_wait\"", "\"parse\"", "\"bundle_load\"", "\"lint\"",
          "\"content_hash\"", "\"golden_sim\"", "\"features\"",
          "\"forward\""})
      EXPECT_NE(body.find(span), std::string::npos) << span << " in " << body;
  }
  EXPECT_EQ(ids.size(), kRequests) << "trace ids must be distinct";

  const std::string last = server.handle_line("TRACE LAST 3");
  const std::string last_body = last.substr(0, last.size() - 3);
  EXPECT_TRUE(obs::json_valid(last_body)) << last_body;
  EXPECT_NE(last_body.find("\"count\":3"), std::string::npos);
}

// ---- connection hygiene ---------------------------------------------------

/// The process's virtual size in KiB from /proc/self/status, or -1.
long vm_size_kib() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  return -1;
}

TEST(ServerTest, SequentialConnectionsDoNotAccumulateThreads) {
  // Every connection runs on its own thread. A finished one must be
  // joined before long: an exited but unjoined thread keeps its whole
  // stack mapped (8 MiB by default), so 256 sequential clients would
  // otherwise grow the address space by 256 stacks.
  if (vm_size_kib() < 0) GTEST_SKIP() << "no /proc/self/status";
  std::size_t stack_bytes = 0;
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  pthread_attr_getstacksize(&attr, &stack_bytes);
  pthread_attr_destroy(&attr);
  // A few stacks of slack (the live connection, one not yet joined,
  // allocator arenas), far below the 256 an unreaped server keeps.
  const long bound_kib =
      std::max(64L * 1024, 16 * static_cast<long>(stack_bytes / 1024));
  const std::string dir = make_bundle_dir("conns");
  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  server.start();
  auto quit_once = [&] {
    const int fd = connect_to(server.port());
    EXPECT_EQ(request(fd, "QUIT"), "BYE\n.\n");
    char ch = 0;
    EXPECT_EQ(::recv(fd, &ch, 1, 0), 0) << "QUIT must close the connection";
    ::close(fd);
  };
  for (int i = 0; i < 8; ++i) quit_once();  // warm up allocator arenas
  const long before = vm_size_kib();
  for (int i = 0; i < 256; ++i) quit_once();
  const long grown_kib = vm_size_kib() - before;
  server.stop();
  RecordProperty("vm_size_growth_kib", std::to_string(grown_kib));
  EXPECT_LT(grown_kib, bound_kib) << "VmSize grew " << grown_kib << " KiB";
}

TEST(ServerTest, OverlongRequestLineGetsErrThenEof) {
  const std::string dir = make_bundle_dir("longline");
  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  server.start();
  const int fd = connect_to(server.port());
  // Bounded waits: a server that keeps buffering must fail the test, not
  // hang it.
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  // A long line under the cap is an ordinary (bad) request.
  const std::string near_cap =
      request(fd, "NONSENSE " + std::string(60 * 1024, 'x'));
  EXPECT_EQ(near_cap.rfind("ERR unknown command", 0), 0u);
  EXPECT_EQ(request(fd, "STATS").substr(0, 2), "OK");

  // 1 MiB without a newline: ERR once the cap is passed, then EOF. The
  // server reads what is still arriving before it closes: a close with
  // unread input would reset the connection, which can drop the ERR.
  std::thread sender([fd] {
    const std::string blob(1 << 20, 'A');
    std::size_t sent = 0;
    while (sent < blob.size()) {
      const ssize_t n = ::send(fd, blob.data() + sent, blob.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
  });
  std::string reply;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  sender.join();
  EXPECT_EQ(reply, "ERR request line exceeds 65536 bytes\n.\n");
  EXPECT_EQ(n, 0) << "expected EOF after the ERR, got errno " << errno;
  // stop() ends the server's drain by design, and a close while the blob
  // is still arriving would reset the connection. So first wait until the
  // server has acknowledged every byte and the FIN: the client's send
  // queue (SIOCOUTQ) counts both until they are acked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int unacked = -1;
  while ((::ioctl(fd, SIOCOUTQ, &unacked) != 0 || unacked != 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(unacked, 0) << "the server never acknowledged the blob";
  // stop() returns once the server has closed its end, so a reset would
  // have arrived by now.
  server.stop();
  int pending_error = 0;
  socklen_t len = sizeof(pending_error);
  ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &pending_error, &len);
  EXPECT_EQ(pending_error, 0) << "the server reset the connection";
  ::close(fd);
}

TEST(ServerTest, OverLimitNetlistGetsAnErrorReply) {
  const std::string dir = make_bundle_dir("over_limit");
  const auto d = tiny_design(52);
  save_bundle_file(synthetic_bundle(d, 10), dir + "/tiny.fcm");
  // A sparse file one byte over the Verilog reader's limit: its size is
  // refused before a byte of it is read.
  const std::string huge = dir + "/huge.v";
  write_file(huge, "");
  std::filesystem::resize_file(huge, netlist::kMaxVerilogBytes + 1);
  EXPECT_THROW(load_score_target(huge), netlist::VerilogLimitError);

  ScoringEngine engine({.threads = 1});
  Server server(engine, {.bundle_dir = dir, .port = 0});
  const std::string reply = server.handle_line("SCORE tiny.fcm " + huge);
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
  EXPECT_NE(reply.find("verilog text of 67108865 bytes exceeds the limit "
                       "of 67108864 bytes"),
            std::string::npos)
      << reply;
  // The failed load counts as one request and one error, so the drained
  // engine still reads requests == completed + errors.
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.requests, 1u);
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.completed, 0u);
  std::filesystem::remove(huge);
}

TEST(ScoringEngineTest, OverLimitBundleIsRefusedByItsSize) {
  const std::string dir = make_bundle_dir("over_limit_bundle");
  const auto d = tiny_design(53);
  // A sparse file one byte over the bundle limit: its size is refused
  // before a byte of it is read, by the engine and by load_bundle_file.
  const std::string huge = dir + "/huge.fcm";
  write_file(huge, "");
  std::filesystem::resize_file(huge, kMaxBundleBytes + 1);
  auto expect_too_large = [](const BundleError& e) {
    EXPECT_EQ(e.code(), BundleErrorCode::kTooLarge);
    EXPECT_NE(std::string(e.what()).find(
                  "16777217 bytes exceed the limit of 16777216 bytes"),
              std::string::npos)
        << e.what();
  };

  ScoringEngine engine({.threads = 1});
  try {
    engine.score(huge, d);
    ADD_FAILURE() << "an over-limit bundle must not load";
  } catch (const BundleError& e) {
    expect_too_large(e);
  }
  const MetricsSnapshot m = engine.metrics();
  EXPECT_EQ(m.requests, 1u);
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.cache_misses, 0u) << "nothing was parsed";

  try {
    load_bundle_file(huge);
    ADD_FAILURE() << "an over-limit bundle must not load";
  } catch (const BundleError& e) {
    expect_too_large(e);
  }
  std::filesystem::remove(huge);
}

TEST(BundleValidation, EndlessFileStopsOneBytePastTheLimit) {
  // /dev/zero has no size to refuse, so the read itself must stop: the
  // count in the message is every byte read.
  try {
    load_bundle_file("/dev/zero");
    ADD_FAILURE() << "an endless file must not load";
  } catch (const BundleError& e) {
    EXPECT_EQ(e.code(), BundleErrorCode::kTooLarge);
    EXPECT_NE(std::string(e.what()).find(
                  "/dev/zero: 16777217 bytes exceed the limit of 16777216 "
                  "bytes"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace fcrit::serve
