// The obs layer: histogram percentile edge cases, concurrent registry
// updates (run under the FCRIT_SANITIZE matrix), the histogram JSON layout,
// the strict JSON validator, the span clock (close() seconds, histogram
// samples, trace events), and tracer spans down to a Chrome trace of a
// real pipeline run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/obs/json.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/request_trace.hpp"
#include "src/obs/trace.hpp"

namespace fcrit::obs {
namespace {

// ---- histogram edge cases -------------------------------------------------

TEST(HistogramTest, EmptyReportsZeroEverywhere) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.percentile(99), 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(HistogramTest, SingleSampleReportsThatSampleExactly) {
  Histogram h;
  h.observe(3.7);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.7);
  EXPECT_DOUBLE_EQ(s.max, 3.7);
  EXPECT_DOUBLE_EQ(s.mean(), 3.7);
  // The bucket upper bound is clamped into [min, max] == {3.7}.
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.7);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.7);
  EXPECT_DOUBLE_EQ(s.percentile(99), 3.7);
}

TEST(HistogramTest, OverflowBucketReportsObservedMax) {
  Histogram h(std::vector<double>{1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(50.0);  // above the last bound: overflow bucket
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_DOUBLE_EQ(s.max, 50.0);
  // The p99 rank lands in the overflow bucket, whose only honest upper
  // bound is the observed maximum.
  EXPECT_DOUBLE_EQ(s.percentile(99), 50.0);
  // Low percentiles stay within the finite buckets.
  EXPECT_LE(s.percentile(30), 1.0);
}

TEST(HistogramTest, PercentilesAreMonotoneAndClamped) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(0.01 * i);  // 0.01 .. 10 ms
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.percentile(50);
  const double p90 = s.percentile(90);
  const double p99 = s.percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
  EXPECT_NEAR(s.mean(), 5.005, 0.01);
}

// ---- concurrency (exercised under the FCRIT_SANITIZE matrix) --------------

TEST(RegistryTest, ConcurrentCounterIncrementsAreExact) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg] {
      // Resolve once, hammer through the stable reference — the intended
      // hot-path pattern.
      Counter& c = reg.counter("test.hits");
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("test.hits").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, SnapshotUnderConcurrentObserveStaysCoherent) {
  Registry reg;
  Histogram& h = reg.histogram("test.latency");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&h, &stop, t] {
      double v = 0.1 * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        h.observe(v);
        v = v < 100.0 ? v * 1.1 : 0.1;
      }
    });
  // The torn-read regression: a snapshot taken mid-write must never show a
  // mean above the maximum ever observed (writers stay below 110).
  for (int i = 0; i < 200; ++i) {
    const HistogramSnapshot s = h.snapshot();
    if (s.count > 0) {
      EXPECT_GE(s.mean(), 0.0);
      EXPECT_LE(s.mean(), 110.0 + 1e-9);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, h.count());
  EXPECT_LE(s.mean(), s.max + 1e-9);
}

TEST(GaugeTest, TracksLevelAndHighWater) {
  Gauge g;
  g.set(3);
  g.add(4);
  EXPECT_EQ(g.value(), 7);
  g.set(1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.high_water(), 7);
  g.add(-5);
  EXPECT_EQ(g.value(), -4);
  EXPECT_EQ(g.high_water(), 7);
}

// ---- registry -------------------------------------------------------------

TEST(RegistryTest, InstrumentsHaveStableAddresses) {
  Registry reg;
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));
  EXPECT_EQ(&reg.gauge("b"), &reg.gauge("b"));
  EXPECT_EQ(&reg.histogram("c"), &reg.histogram("c"));
}

TEST(RegistryTest, HistogramJsonCarriesFullBucketLayout) {
  Registry reg;
  Histogram& h = reg.histogram("lat_ms", std::vector<double>{1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(50.0);  // overflow bucket
  const std::string json = histogram_json(h.snapshot());
  ASSERT_TRUE(json_valid(json)) << json;
  // The dense layout: every bound, and one count per bucket (zeros
  // included, overflow last).
  EXPECT_NE(json.find("\"bounds\":[1,2,4]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counts\":[1,1,0,1]"), std::string::npos) << json;
}

// ---- request traces -------------------------------------------------------

TEST(RequestTraceTest, DisabledCollectorRecordsNothing) {
  RequestTraceCollector col(8);
  EXPECT_FALSE(col.enabled());
  EXPECT_EQ(col.begin("b.fcm", "t.v"), 0u);
  // Mutators on id 0 are no-ops by contract, never crashes.
  col.span(0, "forward", TraceClock::now(), TraceClock::now());
  col.finish(0, "ok");
  EXPECT_EQ(col.ring_size(), 0u);
  EXPECT_EQ(col.active_size(), 0u);
}

TEST(RequestTraceTest, FinishMovesTraceIntoRingWithSpans) {
  RequestTraceCollector col(8);
  col.set_enabled(true);
  const std::uint64_t id = col.begin("b.fcm", "t.v");
  ASSERT_NE(id, 0u);
  EXPECT_EQ(col.active_size(), 1u);
  const auto t0 = TraceClock::now();
  col.span(id, "bundle_load", t0, t0 + std::chrono::microseconds(500),
           "cache-hit");
  col.span(id, "forward", t0, t0 + std::chrono::milliseconds(2));
  col.finish(id, "ok");

  EXPECT_EQ(col.active_size(), 0u);
  ASSERT_EQ(col.ring_size(), 1u);
  const auto t = col.find(id);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->id, id);
  EXPECT_EQ(t->bundle, "b.fcm");
  EXPECT_EQ(t->target, "t.v");
  EXPECT_EQ(t->verdict, "ok");
  EXPECT_GT(t->start_unix_ms, 0u);
  EXPECT_GE(t->total_ms, 0.0);
  ASSERT_EQ(t->spans.size(), 2u);
  EXPECT_EQ(t->spans[0].name, "bundle_load");
  EXPECT_EQ(t->spans[0].detail, "cache-hit");
  EXPECT_GT(t->spans[1].dur_ms, 0.0);

  const std::string json = request_trace_json(*t);
  EXPECT_TRUE(json_valid(json)) << json;
  // Ids are decimal strings: the full 64-bit range does not survive an
  // IEEE-double JSON parser.
  EXPECT_NE(json.find("\"id\":\"" + std::to_string(id) + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
}

TEST(RequestTraceTest, ClientSuppliedIdIsHonored) {
  RequestTraceCollector col(8);
  col.set_enabled(true);
  EXPECT_EQ(col.begin("b.fcm", "t.v", 42), 42u);
  col.finish(42, "ok");
  EXPECT_TRUE(col.find(42).has_value());
}

TEST(RequestTraceTest, RingEvictsOldestAndCountsDrops) {
  RequestTraceCollector col(4);
  col.set_enabled(true);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    std::string target = "t";
    target += std::to_string(i);
    const std::uint64_t id = col.begin("b.fcm", target);
    ids.push_back(id);
    col.finish(id, "ok");
  }
  EXPECT_EQ(col.ring_size(), 4u);
  EXPECT_EQ(col.dropped(), 2u);
  EXPECT_FALSE(col.find(ids[0]).has_value());
  EXPECT_FALSE(col.find(ids[1]).has_value());
  EXPECT_TRUE(col.find(ids[5]).has_value());
  // last(n) is newest-first.
  const auto recent = col.last(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].id, ids[5]);
  EXPECT_EQ(recent[1].id, ids[4]);
  EXPECT_EQ(col.last(100).size(), 4u);
}

TEST(RequestTraceTest, AccessLogAppendsOneValidJsonLinePerRequest) {
  const std::string path = ::testing::TempDir() + "fcrit_access_log.jsonl";
  std::remove(path.c_str());
  RequestTraceCollector col(8);
  col.set_enabled(true);
  ASSERT_TRUE(col.open_access_log(path));
  col.set_slow_ms(0.0);  // every request also mirrors to the logger
  for (int i = 0; i < 3; ++i) {
    std::string target = "t";
    target += std::to_string(i);
    const std::uint64_t id = col.begin("b.fcm", target);
    col.finish(id, i == 2 ? "error" : "ok", i == 2 ? "boom" : "");
  }
  std::ifstream is(path);
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    EXPECT_TRUE(json_valid(line)) << line;
    EXPECT_NE(line.find("\"verdict\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_FALSE(col.open_access_log("/nonexistent-dir/x.jsonl"));
  std::remove(path.c_str());
}

TEST(RequestTraceTest, ConcurrentRequestsKeepRingCoherent) {
  // Run under the FCRIT_SANITIZE matrix: writers begin/span/finish while a
  // reader snapshots the ring and a toggler flips the enable gate.
  RequestTraceCollector col(64);
  col.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&col, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string target = "t";
        target += std::to_string(t);
        const std::uint64_t id = col.begin("b.fcm", target);
        const auto now = TraceClock::now();
        col.span(id, "forward", now, now);
        col.finish(id, "ok");
      }
    });
  std::thread reader([&col] {
    for (int i = 0; i < 200; ++i) {
      for (const auto& t : col.last(16)) {
        EXPECT_EQ(t.verdict, "ok");
        EXPECT_TRUE(json_valid(request_trace_json(t)));
      }
    }
  });
  for (auto& t : writers) t.join();
  reader.join();
  EXPECT_EQ(col.active_size(), 0u);
  EXPECT_EQ(col.ring_size() + col.dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- JSON helpers ---------------------------------------------------------

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1,2.5,-3e2,\"x\",true,false,null]"));
  EXPECT_TRUE(json_valid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("[1 2]"));
  EXPECT_FALSE(json_valid("{\"a\":01}"));
  EXPECT_FALSE(json_valid("nul"));
  EXPECT_FALSE(json_valid("{} trailing"));
}

TEST(JsonTest, EscapesAndNumbers) {
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_TRUE(json_valid(json_string(std::string("\x01\x1f tab\t"))));
  EXPECT_EQ(json_number(0.0), "0");
  // Non-finite values must not poison the document.
  EXPECT_TRUE(json_valid(json_number(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(json_valid(json_number(std::numeric_limits<double>::infinity())));
}

TEST(LogTest, LevelParsingRoundTrips) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("nonsense", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_STREQ(log_level_name(LogLevel::kError), "error");
}

// ---- tracer ---------------------------------------------------------------

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  tracer.stop();
  {
    Span s("ignored");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(s.close(), 0.0);  // untraced, the span still times its stage
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, NestedSpansProduceValidChromeTrace) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  {
    Span outer("outer");
    { Span inner("inner"); }
    Span closed_early("early");
    closed_early.close();
    closed_early.close();  // idempotent
  }
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Spans record on close, innermost first; the outer span must enclose
  // the inner one.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_LE(events[0].ts_us - events[2].ts_us, events[2].dur_us);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// ---- the span clock -------------------------------------------------------

TEST(SpanTest, CloseIsNonNegativeAndMonotoneAcrossNesting) {
  Span outer("outer");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Span inner("inner");
  const double inner_s = inner.close();
  EXPECT_GE(inner_s, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const double outer_s = outer.close();
  EXPECT_GE(outer_s, inner_s);
  EXPECT_GE(outer_s, 0.004);
}

TEST(SpanTest, SecondCloseReturnsTheSameSeconds) {
  Span span("once");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double first = span.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(span.close(), first);
  EXPECT_EQ(span.close(), first);
}

TEST(SpanTest, HistogramGetsOneSampleOfCloseMillis) {
  Histogram hist;
  double seconds = 0.0;
  {
    Span span("stage", &hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seconds = span.close();
  }  // the destructor after close() adds no second sample
  const HistogramSnapshot s = hist.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, seconds * 1e3);
  EXPECT_EQ(s.max, seconds * 1e3);

  {
    Span span("scoped", &hist);  // closed by its destructor
  }
  EXPECT_EQ(hist.snapshot().count, 2u);
}

TEST(SpanTest, TracedEventDurationMatchesClose) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  Span span("traced");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double seconds = span.close();
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "traced");
  EXPECT_NEAR(static_cast<double>(events[0].dur_us), seconds * 1e6, 1.0);
}

// ---- pipeline integration: the acceptance criterion -----------------------

TEST(TracerTest, PipelineRunYieldsAtLeastFourNamedPhaseSpans) {
  core::PipelineConfig cfg;
  cfg.probability_cycles = 64;
  cfg.campaign_cycles = 48;
  cfg.train.epochs = 20;
  cfg.train.patience = 10;
  cfg.regressor_train.epochs = 20;
  cfg.regressor_train.patience = 10;
  cfg.train_baselines = false;
  core::FaultCriticalityAnalyzer analyzer(cfg);

  Tracer& tracer = Tracer::instance();
  tracer.start();
  const auto r = analyzer.analyze_design("or1200_icfsm");
  tracer.stop();
  EXPECT_GT(r.dataset.size(), 0u);

  std::vector<std::string> names;
  for (const auto& e : tracer.events())
    if (std::find(names.begin(), names.end(), e.name) == names.end())
      names.push_back(e.name);
  EXPECT_GE(names.size(), 4u) << "distinct phase spans";
  for (const char* expected :
       {"golden_sim", "fi_campaign", "graph_features", "gcn_train"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;

  const std::string path = ::testing::TempDir() + "fcrit_pipeline_trace.json";
  ASSERT_TRUE(tracer.write_chrome_trace_file(path));
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  EXPECT_TRUE(json_valid(buf.str()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcrit::obs
