#include "src/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace fcrit::core {
namespace {

/// One shared pipeline run on the smallest design (ICFSM) keeps this
/// integration suite fast while exercising every stage.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineConfig cfg;
    cfg.campaign_cycles = 128;
    cfg.probability_cycles = 256;
    cfg.train.epochs = 200;
    cfg.regressor_train.epochs = 200;
    FaultCriticalityAnalyzer analyzer(cfg);
    result_ = new PipelineResult(analyzer.analyze_design("or1200_icfsm"));
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static PipelineResult* result_;
};

PipelineResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, AllStagesPopulated) {
  const auto& r = *result_;
  EXPECT_EQ(r.design.name, "or1200_icfsm");
  EXPECT_EQ(r.stats.p1.size(), r.design.netlist.num_nodes());
  EXPECT_FALSE(r.campaign.faults.empty());
  EXPECT_GT(r.dataset.size(), 0u);
  EXPECT_EQ(r.graph.num_nodes,
            static_cast<int>(r.design.netlist.num_nodes()));
  EXPECT_EQ(r.features.rows(), r.graph.num_nodes);
  EXPECT_EQ(r.features.cols(), graphir::kNumBaseFeatures);
  EXPECT_TRUE(r.gcn != nullptr);
  EXPECT_TRUE(r.regressor != nullptr);
  EXPECT_TRUE(r.regression.has_value());
  EXPECT_GT(r.fi_seconds, 0.0);
  EXPECT_GT(r.train_seconds, 0.0);
}

TEST_F(PipelineTest, SplitIsEightyTwenty) {
  const auto& r = *result_;
  const double frac =
      static_cast<double>(r.split.train.size()) /
      static_cast<double>(r.split.train.size() + r.split.val.size());
  EXPECT_NEAR(frac, 0.8, 0.02);
}

TEST_F(PipelineTest, LabelsAlignWithDataset) {
  const auto& r = *result_;
  for (std::size_t i = 0; i < r.dataset.size(); ++i) {
    const auto id = r.dataset.nodes[i];
    EXPECT_EQ(r.labels[id], r.dataset.label[i]);
    EXPECT_DOUBLE_EQ(r.scores[id], r.dataset.score[i]);
  }
}

TEST_F(PipelineTest, GcnOutperformsChance) {
  const auto& r = *result_;
  EXPECT_GT(r.gcn_eval.val_accuracy, 0.7);
  EXPECT_GT(r.gcn_eval.val_auc, 0.7);
  EXPECT_EQ(r.gcn_eval.proba.size(), r.design.netlist.num_nodes());
}

TEST_F(PipelineTest, AllFiveBaselinesEvaluated) {
  const auto& r = *result_;
  ASSERT_EQ(r.baseline_evals.size(), 5u);
  EXPECT_EQ(r.baseline_evals[0].name, "MLP");
  EXPECT_EQ(r.baseline_evals[4].name, "EBM");
  for (const auto& b : r.baseline_evals) {
    EXPECT_GT(b.val_accuracy, 0.3) << b.name;
    EXPECT_EQ(b.predicted.size(), r.design.netlist.num_nodes());
  }
}

TEST_F(PipelineTest, RegressionConformsWithClassifier) {
  const auto& r = *result_;
  EXPECT_GT(r.regression->classifier_conformity, 0.6);
  EXPECT_GT(r.regression->val_pearson, 0.3);
  EXPECT_LT(r.regression->val_mse, 0.2);
}

TEST_F(PipelineTest, ConfusionConsistentWithAccuracy) {
  const auto& r = *result_;
  const auto& c = r.gcn_eval.val_confusion;
  EXPECT_EQ(c.total(), static_cast<int>(r.split.val.size()));
  EXPECT_DOUBLE_EQ(c.accuracy(), r.gcn_eval.val_accuracy);
}

TEST(PipelineConfig, DangerousFractionOverride) {
  PipelineConfig cfg;
  cfg.campaign_cycles = 64;
  cfg.probability_cycles = 64;
  cfg.train.epochs = 10;
  cfg.train_baselines = false;
  cfg.train_regressor = false;
  cfg.dangerous_cycle_fraction = 0.5;  // very strict: fewer critical nodes
  FaultCriticalityAnalyzer strict(cfg);
  cfg.dangerous_cycle_fraction = 0.0;  // permissive: more critical nodes
  FaultCriticalityAnalyzer loose(cfg);
  const auto rs = strict.analyze_design("or1200_icfsm");
  const auto rl = loose.analyze_design("or1200_icfsm");
  EXPECT_LT(rs.dataset.num_critical(), rl.dataset.num_critical());
}

TEST(Pipeline, SecondsFieldsAreTheirStageSpans) {
  PipelineConfig cfg;
  cfg.campaign_cycles = 48;
  cfg.probability_cycles = 64;
  cfg.train.epochs = 20;
  cfg.train_baselines = false;
  cfg.train_regressor = false;
  FaultCriticalityAnalyzer analyzer(cfg);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  const PipelineResult r = analyzer.analyze_design("or1200_icfsm");
  tracer.stop();
  const std::vector<obs::TraceEvent> events = tracer.events();
  auto only = [&](const std::string& name) {
    const obs::TraceEvent* found = nullptr;
    int count = 0;
    for (const obs::TraceEvent& e : events)
      if (e.name == name) {
        found = &e;
        ++count;
      }
    EXPECT_EQ(count, 1) << name;
    return found;
  };
  const obs::TraceEvent* fi = only("fi_campaign");
  const obs::TraceEvent* train = only("gcn_train");
  const obs::TraceEvent* infer = only("gcn_inference");
  const obs::TraceEvent* golden = only("fi_golden");
  ASSERT_TRUE(fi && train && infer && golden);
  // An event's dur_us truncates the span's own close() seconds.
  EXPECT_NEAR(double(fi->dur_us), r.fi_seconds * 1e6, 1.0);
  EXPECT_NEAR(double(train->dur_us), r.train_seconds * 1e6, 1.0);
  EXPECT_NEAR(double(infer->dur_us), r.inference_seconds * 1e6, 1.0);
  EXPECT_NEAR(double(golden->dur_us), r.campaign.golden_seconds * 1e6, 1.0);
  // The golden run is part of the campaign (1 us of truncation slack).
  EXPECT_GE(golden->ts_us, fi->ts_us);
  EXPECT_LE(golden->ts_us + golden->dur_us, fi->ts_us + fi->dur_us + 1);
}

TEST(Pipeline, UnknownDesignThrows) {
  FaultCriticalityAnalyzer analyzer;
  EXPECT_THROW(analyzer.analyze_design("bogus"), std::runtime_error);
}

}  // namespace
}  // namespace fcrit::core
