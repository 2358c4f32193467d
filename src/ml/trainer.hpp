// Full-graph training loops for the GCN classifier (§3.3.3) and regressor
// (§3.4): Adam, masked losses over the 80/20 node split, early stopping on
// validation accuracy / MSE with best-parameter restore. Each epoch's
// evaluation computes only the rows the validation metric reads, with the
// bits a full evaluation gives them (GcnModel::cut_suffix). Both heads run
// one schedule; every 25th epoch logs its progress at debug level.
#pragma once

#include <cstdint>
#include <vector>

#include "src/ml/gcn.hpp"
#include "src/ml/sparse.hpp"

namespace fcrit::ml {

struct TrainConfig {
  int epochs = 300;
  double lr = 0.01;
  double weight_decay = 5e-4;
  int patience = 60;   // early-stopping patience in epochs (<=0: off)
};

struct TrainHistory {
  std::vector<double> train_loss;   // per epoch
  std::vector<double> val_metric;   // accuracy (classifier) / -MSE (regressor)
  int best_epoch = -1;
  double best_val_metric = 0.0;
};

/// Train a classifier on `labels` (one class per node). The model's
/// parameters end at the best-validation epoch.
TrainHistory train_classifier(GcnModel& model, const SparseMatrix& adj,
                              const Matrix& x, const std::vector<int>& labels,
                              const std::vector<int>& train_idx,
                              const std::vector<int>& val_idx,
                              const TrainConfig& config);

/// Train a regressor on continuous `targets` in [0, 1].
TrainHistory train_regressor(GcnModel& model, const SparseMatrix& adj,
                             const Matrix& x,
                             const std::vector<double>& targets,
                             const std::vector<int>& train_idx,
                             const std::vector<int>& val_idx,
                             const TrainConfig& config);

}  // namespace fcrit::ml
