#include "src/ml/trainer.hpp"

#include <gtest/gtest.h>

#include "src/ml/metrics.hpp"

namespace fcrit::ml {
namespace {

/// Linearly separable toy graph: two 10-node cliques, features strongly
/// correlated with the community.
struct Toy {
  SparseMatrix adj;
  Matrix x;
  std::vector<int> labels;
  std::vector<double> scores;
  std::vector<int> train, val;

  Toy() {
    const int n = 24;
    std::vector<Coo> entries;
    for (int i = 0; i < n; ++i) entries.push_back({i, i, 0.5f});
    auto link = [&](int a, int b) {
      entries.push_back({a, b, 0.3f});
      entries.push_back({b, a, 0.3f});
    };
    for (int i = 0; i < 12; ++i)
      for (int j = i + 1; j < 12; j += 3) link(i, j);
    for (int i = 12; i < n; ++i)
      for (int j = i + 1; j < n; j += 3) link(i, j);
    adj = SparseMatrix::from_coo(n, n, entries);

    util::Rng rng(5);
    x = Matrix::randn(n, 4, rng, 0.3f);
    labels.assign(static_cast<std::size_t>(n), 0);
    scores.assign(static_cast<std::size_t>(n), 0.2);
    for (int i = 12; i < n; ++i) {
      labels[static_cast<std::size_t>(i)] = 1;
      scores[static_cast<std::size_t>(i)] = 0.8;
      x(i, 0) += 2.0f;
    }
    for (int i = 0; i < n; ++i)
      (i % 4 == 0 ? val : train).push_back(i);
  }
};

TEST(Training, EmptyValidationSetKeepsItsBehaviour) {
  // With no validation rows the classifier's accuracy reads 0 every epoch,
  // so the first epoch stays the best and patience ends the run; the
  // regressor's masked MSE refuses the empty mask.
  Toy toy;
  TrainConfig tc;
  tc.epochs = 50;
  tc.patience = 5;
  GcnModel clf(4, GcnConfig::classifier());
  const auto h = train_classifier(clf, toy.adj, toy.x, toy.labels, toy.train,
                                  {}, tc);
  EXPECT_EQ(h.train_loss.size(), 6u);
  EXPECT_EQ(h.best_epoch, 0);
  EXPECT_EQ(h.best_val_metric, 0.0);
  GcnModel reg(4, GcnConfig::regressor());
  EXPECT_THROW(train_regressor(reg, toy.adj, toy.x, toy.scores, toy.train, {},
                               tc),
               std::runtime_error);
}

TEST(TrainClassifier, LearnsSeparableTask) {
  Toy toy;
  GcnConfig cfg = GcnConfig::classifier();
  cfg.hidden = {8, 8};
  cfg.dropout = 0.0;
  GcnModel model(4, cfg);
  TrainConfig tc;
  tc.epochs = 200;
  const auto h =
      train_classifier(model, toy.adj, toy.x, toy.labels, toy.train, toy.val, tc);
  EXPECT_GE(h.best_val_metric, 0.99);
  EXPECT_GT(h.train_loss.front(), h.train_loss.back());
}

TEST(TrainClassifier, RestoresBestParameters) {
  Toy toy;
  GcnConfig cfg = GcnConfig::classifier();
  cfg.hidden = {8};
  cfg.dropout = 0.0;
  GcnModel model(4, cfg);
  TrainConfig tc;
  tc.epochs = 150;
  const auto h =
      train_classifier(model, toy.adj, toy.x, toy.labels, toy.train, toy.val, tc);
  // Accuracy of the restored model must equal the reported best.
  model.set_adjacency(&toy.adj);
  const Matrix out = model.forward(toy.x, false);
  const double acc = accuracy(predict_labels(out), toy.labels, toy.val);
  EXPECT_DOUBLE_EQ(acc, h.best_val_metric);
}

TEST(TrainClassifier, EarlyStoppingCutsEpochs) {
  Toy toy;
  GcnConfig cfg = GcnConfig::classifier();
  cfg.hidden = {8};
  cfg.dropout = 0.0;
  GcnModel model(4, cfg);
  TrainConfig tc;
  tc.epochs = 2000;
  tc.patience = 10;
  const auto h =
      train_classifier(model, toy.adj, toy.x, toy.labels, toy.train, toy.val, tc);
  EXPECT_LT(h.train_loss.size(), 2000u);
  EXPECT_GE(h.best_epoch, 0);
}

TEST(TrainClassifier, HistoryShapesConsistent) {
  Toy toy;
  GcnModel model(4, GcnConfig::classifier());
  TrainConfig tc;
  tc.epochs = 30;
  tc.patience = 0;  // no early stopping
  const auto h =
      train_classifier(model, toy.adj, toy.x, toy.labels, toy.train, toy.val, tc);
  EXPECT_EQ(h.train_loss.size(), 30u);
  EXPECT_EQ(h.val_metric.size(), 30u);
}

TEST(TrainRegressor, FitsContinuousScores) {
  Toy toy;
  GcnConfig cfg = GcnConfig::regressor();
  cfg.hidden = {8, 8};
  cfg.dropout = 0.0;
  GcnModel model(4, cfg);
  TrainConfig tc;
  tc.epochs = 300;
  const auto h = train_regressor(model, toy.adj, toy.x, toy.scores, toy.train,
                                 toy.val, tc);
  EXPECT_GE(h.best_val_metric, -0.02);  // val MSE below 0.02

  model.set_adjacency(&toy.adj);
  const Matrix pred = model.forward(toy.x, false);
  std::vector<double> vp, vt;
  for (const int i : toy.val) {
    vp.push_back(pred(i, 0));
    vt.push_back(toy.scores[static_cast<std::size_t>(i)]);
  }
  EXPECT_GE(pearson(vp, vt), 0.9);
}

}  // namespace
}  // namespace fcrit::ml
