// Bitwise pins for the training paths perfbench's train_ee_zonal does not
// reach: the GCN classifier and regressor under every layer-stack shape the
// config allows (Table 1, no dropout, dropout after the first or the last
// hidden conv, a single hidden conv, early stopping), the MLP, random
// forest, EBM and decision-tree baselines (on the random graph and on a
// table of tied values, ±0 among them), the five baselines of one short
// pipeline run, and one GNNExplainer explanation. Each pin is fnv1a64 over
// the serialized weights plus the training history (or the returned
// probabilities / masks), recorded on x86-64; a change that alters any bit
// of training fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/explain/gnn_explainer.hpp"
#include "src/ml/baselines/dtree.hpp"
#include "src/ml/baselines/ebm.hpp"
#include "src/ml/baselines/mlp.hpp"
#include "src/ml/baselines/rforest.hpp"
#include "src/ml/serialize.hpp"
#include "src/ml/trainer.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit {
namespace {

using ml::GcnConfig;
using ml::GcnModel;
using ml::Matrix;
using ml::TrainConfig;
using ml::TrainHistory;

/// A seeded random graph (a random tree plus extra chords) with the GCN's
/// five input features, labels correlated with two of them and scores in
/// [0, 1]; the normalized adjacency is built like graphir::build_graph's.
struct RandomGraph {
  graphir::CircuitGraph graph;
  Matrix x;
  std::vector<int> labels;
  std::vector<double> scores;
  std::vector<int> train, val;

  RandomGraph() {
    const int n = 64;
    util::Rng rng(20240611);
    std::set<std::pair<int, int>> edges;
    for (int i = 1; i < n; ++i) {
      const int j = static_cast<int>(rng.next_below(static_cast<unsigned>(i)));
      edges.insert({j, i});
    }
    while (edges.size() < 96) {
      const int a = static_cast<int>(rng.next_below(n));
      const int b = static_cast<int>(rng.next_below(n));
      if (a != b) edges.insert({std::min(a, b), std::max(a, b)});
    }
    graph.num_nodes = n;
    graph.edges.assign(edges.begin(), edges.end());
    std::vector<double> degree(static_cast<std::size_t>(n), 1.0);
    for (const auto& [u, v] : graph.edges) {
      degree[static_cast<std::size_t>(u)] += 1.0;
      degree[static_cast<std::size_t>(v)] += 1.0;
    }
    struct Tagged {
      ml::Coo coo;
      int edge;
    };
    std::vector<Tagged> tagged;
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      const auto [u, v] = graph.edges[e];
      const float w = static_cast<float>(
          1.0 / std::sqrt(degree[static_cast<std::size_t>(u)] *
                          degree[static_cast<std::size_t>(v)]));
      tagged.push_back({{u, v, w}, static_cast<int>(e)});
      tagged.push_back({{v, u, w}, static_cast<int>(e)});
    }
    for (int i = 0; i < n; ++i)
      tagged.push_back(
          {{i, i,
            static_cast<float>(1.0 / degree[static_cast<std::size_t>(i)])},
           -1});
    std::sort(tagged.begin(), tagged.end(),
              [](const Tagged& a, const Tagged& b) {
                return std::tie(a.coo.row, a.coo.col) <
                       std::tie(b.coo.row, b.coo.col);
              });
    std::vector<ml::Coo> entries;
    for (const Tagged& t : tagged) {
      entries.push_back(t.coo);
      graph.entry_edge.push_back(t.edge);
    }
    graph.normalized_adjacency = ml::SparseMatrix::from_coo(n, n, entries);

    x = Matrix::randn(n, 5, rng, 1.0f);
    labels.resize(static_cast<std::size_t>(n));
    scores.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const float s = x(i, 0) + 0.5f * x(i, 3);
      labels[static_cast<std::size_t>(i)] = s > 0.2f ? 1 : 0;
      scores[static_cast<std::size_t>(i)] = 1.0 / (1.0 + std::exp(-s));
      (i % 5 == 0 ? val : train).push_back(i);
    }
  }
};

/// fnv1a64 over save_gcn's bytes followed by the history's raw bytes.
std::uint64_t model_pin(const GcnModel& model, const TrainHistory& h) {
  std::ostringstream os;
  ml::save_gcn(model, os);
  std::string bytes = os.str();
  const auto append = [&](const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  append(h.train_loss.data(), h.train_loss.size() * sizeof(double));
  append(h.val_metric.data(), h.val_metric.size() * sizeof(double));
  append(&h.best_epoch, sizeof h.best_epoch);
  append(&h.best_val_metric, sizeof h.best_val_metric);
  return serve::fnv1a64(bytes);
}

struct Case {
  const char* name;
  void (*tweak)(GcnConfig&, TrainConfig&);
  std::uint64_t classifier_pin;
  std::uint64_t regressor_pin;
};

class TrainingPin : public ::testing::TestWithParam<Case> {};

TEST_P(TrainingPin, WeightsAndHistoryMatchPin) {
  const Case& c = GetParam();
  const RandomGraph g;
  const auto& adj = g.graph.normalized_adjacency;

  GcnConfig cc = GcnConfig::classifier();
  TrainConfig tc;
  tc.epochs = 40;
  c.tweak(cc, tc);
  GcnModel clf(g.x.cols(), cc);
  const TrainHistory ch = ml::train_classifier(clf, adj, g.x, g.labels,
                                               g.train, g.val, tc);

  GcnConfig rc = GcnConfig::regressor();
  TrainConfig rtc;
  rtc.epochs = 40;
  c.tweak(rc, rtc);
  GcnModel reg(g.x.cols(), rc);
  const TrainHistory rh = ml::train_regressor(reg, adj, g.x, g.scores,
                                              g.train, g.val, rtc);

  EXPECT_EQ(model_pin(clf, ch), c.classifier_pin)
      << c.name << " classifier: 0x" << std::hex << model_pin(clf, ch);
  EXPECT_EQ(model_pin(reg, rh), c.regressor_pin)
      << c.name << " regressor: 0x" << std::hex << model_pin(reg, rh);
  if (tc.patience > 0 && tc.patience < 10) {
    EXPECT_LT(ch.train_loss.size(), static_cast<std::size_t>(tc.epochs))
        << "the early-stopping case must stop early";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TrainingPin,
    ::testing::Values(
        Case{"table1", [](GcnConfig&, TrainConfig&) {}, 0x9aebf0295e2e0774,
             0x36b6304927e2102c},
        Case{"no_dropout_layer",
             [](GcnConfig& c, TrainConfig&) { c.dropout_after = -1; },
             0x098a2001f42437ea, 0x62fa199b85a734e9},
        Case{"dropout_after_0",
             [](GcnConfig& c, TrainConfig&) { c.dropout_after = 0; },
             0x770681c71a9c7ad6, 0xa1dd8f9b0b774947},
        Case{"dropout_after_2",
             [](GcnConfig& c, TrainConfig&) { c.dropout_after = 2; },
             0x72e0250ab7506521, 0x6776c3301d25f477},
        Case{"dropout_rate_0",
             [](GcnConfig& c, TrainConfig&) { c.dropout = 0.0; },
             0xe7a95dd7f2d9c292, 0xb5bc67c5b18ac215},
        Case{"hidden_8", [](GcnConfig& c, TrainConfig&) { c.hidden = {8}; },
             0x783992919c5c0170, 0x1e38deb845ab177e},
        Case{"early_stop",
             [](GcnConfig&, TrainConfig& t) {
               t.epochs = 200;
               t.patience = 3;
             },
             0xf080c2de87d1b694, 0xa7793781eb687b29}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

/// Five feature columns that each hold a few repeated values, +0 and -0
/// among them, so sorting a column leaves long runs of equal values (the
/// zeros equal but with different bits) whose rows carry both labels. The
/// training rows are listed out of order, and some of them twice.
struct TiedTable {
  Matrix x;
  std::vector<int> labels;
  std::vector<int> train;

  TiedTable() {
    const int n = 96;
    const float levels[] = {-1.5f, -0.5f, -0.0f, 0.0f, 0.75f, 2.0f};
    util::Rng rng(7411);
    x = Matrix(n, 5);
    labels.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < 5; ++j)
        x(i, j) = levels[j == 4 ? 2 + rng.next_below(3) : rng.next_below(6)];
      const bool leaning = x(i, 0) + x(i, 1) > 0.0f;
      labels[static_cast<std::size_t>(i)] =
          rng.next_below(4) == 0 ? !leaning : leaning;
    }
    for (int i = n - 1; i >= 0; --i)
      if (i % 6 != 0) train.push_back(i);
    for (int i = 1; i < n; i += 9) train.push_back(i);
  }
};

std::uint64_t proba_pin(const std::vector<double>& p) {
  return pins::hash_bytes(std::span<const double>(p));
}

/// Fits `model` to the rows and returns the pin of its probabilities over
/// every row.
template <typename Model>
std::uint64_t fitted_pin(Model model, const Matrix& x,
                         const std::vector<int>& labels,
                         const std::vector<int>& train) {
  model.fit(x, labels, train);
  return proba_pin(model.predict_proba(x));
}

TEST(TrainingPin, UnsortedValidationRowsMatchPin) {
  // The per-epoch evaluation reads the validation rows in the caller's
  // order, repeats included: the history (the regressor's MSE sums in that
  // order) and the early-stopping choice are pinned with them.
  const RandomGraph g;
  std::vector<int> val(g.val.rbegin(), g.val.rend());
  val.push_back(g.val[2]);
  TrainConfig tc;
  tc.epochs = 40;
  GcnModel clf(g.x.cols(), GcnConfig::classifier());
  const TrainHistory ch = ml::train_classifier(
      clf, g.graph.normalized_adjacency, g.x, g.labels, g.train, val, tc);
  GcnModel reg(g.x.cols(), GcnConfig::regressor());
  const TrainHistory rh = ml::train_regressor(
      reg, g.graph.normalized_adjacency, g.x, g.scores, g.train, val, tc);
  EXPECT_EQ(model_pin(clf, ch), 0x7b0f668988dda34bu)
      << "classifier: 0x" << std::hex << model_pin(clf, ch);
  EXPECT_EQ(model_pin(reg, rh), 0xadd6430f2e28069du)
      << "regressor: 0x" << std::hex << model_pin(reg, rh);
}

TEST(TrainingPin, MlpPredictProbaMatchesPin) {
  const RandomGraph g;
  ml::MlpClassifier mlp;
  mlp.fit(g.x, g.labels, g.train);
  const std::vector<double> p = mlp.predict_proba(g.x);
  EXPECT_EQ(pins::hash_bytes(std::span<const double>(p)), 0x60f2f943e71cee1du)
      << "0x" << std::hex << pins::hash_bytes(std::span<const double>(p));
}

TEST(TrainingPin, BaselinesOnRandomGraphMatchPins) {
  const RandomGraph g;
  const std::uint64_t forest =
      fitted_pin(ml::RandomForest(), g.x, g.labels, g.train);
  const std::uint64_t ebm =
      fitted_pin(ml::ExplainableBoosting(), g.x, g.labels, g.train);
  const std::uint64_t tree =
      fitted_pin(ml::DecisionTree(), g.x, g.labels, g.train);
  EXPECT_EQ(forest, 0xc22c6043b8fa4a1fu) << "forest 0x" << std::hex << forest;
  EXPECT_EQ(ebm, 0x473d0d90a39ba517u) << "ebm 0x" << std::hex << ebm;
  EXPECT_EQ(tree, 0x834aa8e7cf2017bau) << "tree 0x" << std::hex << tree;
}

TEST(TrainingPin, BaselinesOnTiedTableMatchPins) {
  const TiedTable t;
  ml::DecisionTree::Config sampled;
  sampled.max_features = 2;
  ml::DecisionTree grown;
  grown.fit(t.x, t.labels, t.train);
  ASSERT_GT(grown.node_count(), 9u) << "the tied table must split";
  const std::uint64_t forest =
      fitted_pin(ml::RandomForest(), t.x, t.labels, t.train);
  const std::uint64_t ebm =
      fitted_pin(ml::ExplainableBoosting(), t.x, t.labels, t.train);
  const std::uint64_t tree =
      fitted_pin(ml::DecisionTree(), t.x, t.labels, t.train);
  const std::uint64_t sampled_tree =
      fitted_pin(ml::DecisionTree(sampled), t.x, t.labels, t.train);
  const std::uint64_t mlp =
      fitted_pin(ml::MlpClassifier(), t.x, t.labels, t.train);
  EXPECT_EQ(forest, 0x0a7b1a70854a9a7eu) << "forest 0x" << std::hex << forest;
  EXPECT_EQ(ebm, 0xa2986b43c46a9cc3u) << "ebm 0x" << std::hex << ebm;
  EXPECT_EQ(tree, 0x3dceb796e61a3adau) << "tree 0x" << std::hex << tree;
  EXPECT_EQ(sampled_tree, 0xe24d630e1dcb0164u) << "sampled tree 0x" << std::hex
                                << sampled_tree;
  EXPECT_EQ(mlp, 0x6e7d12163894e597u) << "mlp 0x" << std::hex << mlp;
}

TEST(TrainingPin, PipelineBaselinesMatchPins) {
  core::PipelineConfig cfg;
  cfg.probability_cycles = 64;
  cfg.campaign_cycles = 64;
  cfg.train.epochs = 2;
  cfg.regressor_train.epochs = 2;
  core::FaultCriticalityAnalyzer analyzer(cfg);
  const core::PipelineResult r = analyzer.analyze_design("or1200_icfsm");
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"MLP", 0xfd6fa02e97a5468eu}, {"LoR", 0x0984e1e10faf0af9u},
      {"RFC", 0x2f80800704e16d5eu}, {"SVM", 0x68a32004bc0e383du},
      {"EBM", 0xb431d13e4f0cf24fu}};
  ASSERT_EQ(r.baseline_evals.size(), std::size(expected));
  for (std::size_t m = 0; m < std::size(expected); ++m) {
    const core::ModelEval& eval = r.baseline_evals[m];
    EXPECT_EQ(eval.name, expected[m].first);
    EXPECT_EQ(proba_pin(eval.proba), expected[m].second)
        << eval.name << " 0x" << std::hex << proba_pin(eval.proba);
  }
}

TEST(TrainingPin, ExplanationMatchesPin) {
  const RandomGraph g;
  GcnModel model(g.x.cols(), GcnConfig::classifier());
  TrainConfig tc;
  tc.epochs = 40;
  ml::train_classifier(model, g.graph.normalized_adjacency, g.x, g.labels,
                       g.train, g.val, tc);
  explain::ExplainerConfig ec;
  ec.epochs = 30;
  explain::GnnExplainer explainer(model, g.graph, g.x, ec);
  const explain::Explanation ex = explainer.explain(11);

  std::vector<double> words{static_cast<double>(ex.node),
                            static_cast<double>(ex.predicted_class)};
  words.insert(words.end(), ex.feature_mask.begin(), ex.feature_mask.end());
  words.insert(words.end(), ex.feature_importance.begin(),
               ex.feature_importance.end());
  for (const auto& [edge, mask] : ex.edge_importance) {
    words.push_back(static_cast<double>(edge));
    words.push_back(mask);
  }
  for (const int v : ex.subgraph_nodes) words.push_back(v);
  EXPECT_EQ(pins::hash_bytes(std::span<const double>(words)),
            0x8a54fd9f11bc2b4eu)
      << "0x" << std::hex << pins::hash_bytes(std::span<const double>(words));
}

TEST(TrainingPin, BackwardAfterInferencePassThrows) {
  const RandomGraph g;
  GcnModel model(g.x.cols(), GcnConfig::classifier());
  model.set_adjacency(&g.graph.normalized_adjacency);
  Matrix grad;
  ml::masked_nll(model.forward(g.x, ml::Pass::kTrain), g.labels, g.train,
                 grad);
  model.backward(grad);  // fine: the training pass kept its caches

  // The workspace's inference pass keeps no caches, so backward must
  // refuse rather than read the training pass's stale ones. (The const
  // infer() writes no workspace, so it leaves the last pass's caches.)
  ml::masked_nll(model.forward(g.x, ml::Pass::kInfer), g.labels, g.train,
                 grad);
  EXPECT_THROW(model.backward(grad), std::logic_error);

  // So must a released workspace.
  ml::masked_nll(model.forward(g.x, ml::Pass::kEval), g.labels, g.train,
                 grad);
  model.release_workspace();
  EXPECT_THROW(model.backward(grad), std::logic_error);
}

}  // namespace
}  // namespace fcrit
