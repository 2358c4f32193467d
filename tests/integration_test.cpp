// Cross-module integration invariants: independent substrates of the
// framework must agree with each other on real designs. These are the
// checks a reviewer would run to convince themselves the FI ground truth,
// the testability analysis and the learned models describe the same
// circuit reality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/core/pipeline.hpp"
#include "src/explain/gnn_explainer.hpp"
#include "src/fault/report.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/serialize.hpp"
#include "src/sim/scoap.hpp"

namespace fcrit {
namespace {

/// One shared pipeline run (smallest design) for all integration checks.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig cfg;
    cfg.campaign_cycles = 192;
    cfg.train.epochs = 250;
    cfg.regressor_train.epochs = 250;
    cfg.train_baselines = false;
    core::FaultCriticalityAnalyzer analyzer(cfg);
    result_ = new core::PipelineResult(analyzer.analyze_design("or1200_icfsm"));
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static core::PipelineResult* result_;
};

core::PipelineResult* IntegrationTest::result_ = nullptr;

TEST_F(IntegrationTest, UnobservableNodesAreNeverCritical) {
  // SCOAP observability and FI criticality are computed by completely
  // independent code paths; a structurally unobservable node must have
  // criticality score 0.
  const auto& r = *result_;
  const auto scoap = sim::compute_scoap(r.design.netlist);
  for (std::size_t i = 0; i < r.dataset.size(); ++i) {
    const auto node = r.dataset.nodes[i];
    if (scoap.co[node] >= sim::kScoapCap) {
      EXPECT_DOUBLE_EQ(r.dataset.score[i], 0.0)
          << r.design.netlist.node(node).name;
    }
  }
}

TEST_F(IntegrationTest, ObservabilityAnticorrelatesWithCriticality) {
  // Harder-to-observe nodes should tend to be less critical: negative rank
  // correlation between SCOAP CO and the FI criticality score.
  const auto& r = *result_;
  const auto scoap = sim::compute_scoap(r.design.netlist);
  std::vector<double> co, score;
  for (std::size_t i = 0; i < r.dataset.size(); ++i) {
    co.push_back(std::log1p(scoap.co[r.dataset.nodes[i]]));
    score.push_back(r.dataset.score[i]);
  }
  EXPECT_LT(ml::spearman(co, score), -0.1);
}

TEST_F(IntegrationTest, FaultCoverageConsistentWithDataset) {
  // Every node with a positive criticality score must stem from at least
  // one dangerous fault, and vice versa.
  const auto& r = *result_;
  std::vector<char> node_dangerous(r.design.netlist.num_nodes(), 0);
  for (const auto& fr : r.campaign.faults)
    if (fr.dangerous_lanes) node_dangerous[fr.fault.node] = 1;
  for (std::size_t i = 0; i < r.dataset.size(); ++i) {
    EXPECT_EQ(r.dataset.score[i] > 0.0,
              node_dangerous[r.dataset.nodes[i]] != 0);
  }
}

TEST_F(IntegrationTest, CoverageSummaryMatchesDatasetCriticality) {
  const auto& r = *result_;
  const auto cov = fault::summarize_coverage(r.campaign);
  // Dangerous faults exist iff some node has a positive score.
  EXPECT_GT(cov.dangerous, 0u);
  EXPECT_EQ(cov.total_faults, r.campaign.faults.size());
}

TEST_F(IntegrationTest, SerializedModelReproducesPipelinePredictions) {
  const auto& r = *result_;
  std::stringstream buffer;
  ml::save_gcn(*r.gcn, buffer);
  ml::GcnModel loaded = ml::load_gcn(buffer);
  loaded.set_adjacency(&r.graph.normalized_adjacency);
  const auto out = loaded.forward(r.features, false);
  const auto predicted = ml::predict_labels(out);
  EXPECT_EQ(predicted, r.gcn_eval.predicted);
}

TEST_F(IntegrationTest, ExplainerFidelityOnRealDesign) {
  // For a handful of validation nodes, the model under the learned masks
  // must keep its prediction (the GNNExplainer objective, end-to-end).
  auto& r = *result_;
  explain::ExplainerConfig ec;
  ec.epochs = 150;
  explain::GnnExplainer explainer(*r.gcn, r.graph, r.features, ec);
  int faithful = 0, total = 0;
  for (std::size_t k = 0; k < r.split.val.size() && total < 5; k += 3) {
    const int node = r.split.val[k];
    ++total;
    const auto ex = explainer.explain(node);
    std::vector<float> weights(r.graph.edges.size(), 1.0f);
    for (const auto& [edge, mask] : ex.edge_importance)
      weights[static_cast<std::size_t>(edge)] = static_cast<float>(mask);
    const auto masked = graphir::masked_adjacency(r.graph, weights);
    ml::Matrix x = r.features;
    for (int i = 0; i < x.rows(); ++i)
      for (int j = 0; j < x.cols(); ++j)
        x(i, j) *= static_cast<float>(
            ex.feature_mask[static_cast<std::size_t>(j)]);
    r.gcn->set_adjacency(&masked);
    const auto pred = ml::predict_labels(r.gcn->forward(x, false));
    r.gcn->set_adjacency(&r.graph.normalized_adjacency);
    if (pred[static_cast<std::size_t>(node)] ==
        r.gcn_eval.predicted[static_cast<std::size_t>(node)])
      ++faithful;
  }
  EXPECT_GE(faithful, total - 1);
}

TEST_F(IntegrationTest, RegressorScoresTrackDatasetScores) {
  const auto& r = *result_;
  std::vector<double> truth, pred;
  for (const auto node : r.dataset.nodes) {
    truth.push_back(r.scores[node]);
    pred.push_back(r.regression->predicted_score[node]);
  }
  EXPECT_GT(ml::pearson(truth, pred), 0.7);
}

}  // namespace
}  // namespace fcrit
