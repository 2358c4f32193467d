#include "src/ml/trainer.hpp"

#include <memory>
#include <numeric>

#include "src/ml/metrics.hpp"
#include "src/ml/optimizer.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace fcrit::ml {

namespace {

/// values[idx[t]] for every t: what the metric reads of the validation
/// rows, in val_idx order.
template <typename T>
std::vector<T> gather(const std::vector<T>& values,
                      const std::vector<int>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (const int i : idx) out.push_back(values[static_cast<std::size_t>(i)]);
  return out;
}

/// 0, 1, ..., n - 1.
std::vector<int> first_rows(std::size_t n) {
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

/// Snapshot/restore of model parameters for early stopping.
class ParamSnapshot {
 public:
  explicit ParamSnapshot(GcnModel& model) : model_(&model) {}

  void capture() {
    values_.clear();
    for (const Param& p : model_->params()) values_.push_back(*p.value);
  }

  void restore() {
    if (values_.empty()) return;
    auto params = model_->params();
    for (std::size_t i = 0; i < params.size(); ++i)
      *params[i].value = values_[i];
  }

 private:
  GcnModel* model_;
  std::vector<Matrix> values_;
};

}  // namespace

// Both loops run one explicit schedule. The layers before the first Dropout
// (GcnModel::forward_prefix) draw nothing from the RNG, and an epoch's
// evaluation forward and the next epoch's training forward run them on the
// same weights and the same input. So after each optimizer step the prefix
// runs once, then the rest of the model runs twice over its output: first
// for evaluation (Pass::kInfer, dropout off), then — only if training goes
// on — for the next epoch's training (Pass::kTrain). Every layer sees
// exactly the operands two full forwards would give it, bit for bit.
//
// The evaluation computes only the validation rows: GcnModel::cut_suffix
// derives, once per run, the rows each conv after the prefix must output,
// and forward_suffix(cut) gives each of them the full pass's bits. The
// metric reads them in val_idx order, as it reads the full output, so the
// history and the early stopping are unchanged.

TrainHistory train_classifier(GcnModel& model, const SparseMatrix& adj,
                              const Matrix& x, const std::vector<int>& labels,
                              const std::vector<int>& train_idx,
                              const std::vector<int>& val_idx,
                              const TrainConfig& config) {
  model.set_adjacency(&adj);
  Adam opt(model.params(), config.lr, config.weight_decay);
  ParamSnapshot best(model);
  TrainHistory history;
  history.best_val_metric = -1.0;
  int since_best = 0;
  obs::Histogram& epoch_ms =
      obs::registry().histogram("ml.classifier.epoch_ms");

  const SuffixCut val_cut = model.cut_suffix(adj, val_idx);
  const std::vector<int> val_labels = gather(labels, val_idx);
  const std::vector<int> val_rows = first_rows(val_idx.size());
  Matrix grad;
  model.forward_prefix(x, Pass::kTrain);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::Span epoch_span("epoch", &epoch_ms);
    const double loss = masked_nll(model.forward_suffix(Pass::kTrain), labels,
                                   train_idx, grad);
    opt.zero_grad();
    model.backward(grad);
    opt.step();

    model.forward_prefix(x, Pass::kTrain);
    const Matrix& eval = model.forward_suffix(val_cut);
    const double val_acc =
        accuracy(predict_labels(eval), val_labels, val_rows);
    history.train_loss.push_back(loss);
    history.val_metric.push_back(val_acc);
    epoch_span.close();

    if (val_acc > history.best_val_metric) {
      history.best_val_metric = val_acc;
      history.best_epoch = epoch;
      best.capture();
      since_best = 0;
    } else if (++since_best >= config.patience && config.patience > 0) {
      break;
    }
    if (config.verbose && epoch % config.log_every == 0)
      obs::logf(obs::LogLevel::kInfo, "epoch %4d  loss %.4f  val_acc %.4f",
                epoch, loss, val_acc);
  }
  model.release_workspace();
  best.restore();
  obs::logf(obs::LogLevel::kDebug,
            "train_classifier: %zu epochs, best val_acc %.4f at epoch %d",
            history.train_loss.size(), history.best_val_metric,
            history.best_epoch);
  return history;
}

TrainHistory train_regressor(GcnModel& model, const SparseMatrix& adj,
                             const Matrix& x,
                             const std::vector<double>& targets,
                             const std::vector<int>& train_idx,
                             const std::vector<int>& val_idx,
                             const TrainConfig& config) {
  model.set_adjacency(&adj);
  Adam opt(model.params(), config.lr, config.weight_decay);
  ParamSnapshot best(model);
  TrainHistory history;
  history.best_val_metric = -1e30;
  int since_best = 0;
  obs::Histogram& epoch_ms =
      obs::registry().histogram("ml.regressor.epoch_ms");

  const SuffixCut val_cut = model.cut_suffix(adj, val_idx);
  const std::vector<double> val_targets = gather(targets, val_idx);
  const std::vector<int> val_rows = first_rows(val_idx.size());
  Matrix grad, unused;
  model.forward_prefix(x, Pass::kTrain);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::Span epoch_span("epoch", &epoch_ms);
    const double loss = masked_mse(model.forward_suffix(Pass::kTrain), targets,
                                   train_idx, grad);
    opt.zero_grad();
    model.backward(grad);
    opt.step();

    model.forward_prefix(x, Pass::kTrain);
    const double val_mse = masked_mse(model.forward_suffix(val_cut),
                                      val_targets, val_rows, unused);
    history.train_loss.push_back(loss);
    history.val_metric.push_back(-val_mse);
    epoch_span.close();

    if (-val_mse > history.best_val_metric) {
      history.best_val_metric = -val_mse;
      history.best_epoch = epoch;
      best.capture();
      since_best = 0;
    } else if (++since_best >= config.patience && config.patience > 0) {
      break;
    }
    if (config.verbose && epoch % config.log_every == 0)
      obs::logf(obs::LogLevel::kInfo, "epoch %4d  loss %.5f  val_mse %.5f",
                epoch, loss, val_mse);
  }
  model.release_workspace();
  best.restore();
  obs::logf(obs::LogLevel::kDebug,
            "train_regressor: %zu epochs, best -val_mse %.5f at epoch %d",
            history.train_loss.size(), history.best_val_metric,
            history.best_epoch);
  return history;
}

}  // namespace fcrit::ml
