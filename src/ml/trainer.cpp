#include "src/ml/trainer.hpp"

#include <numeric>
#include <string>

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

/// Epochs between two progress lines (logged at debug).
constexpr int kLogEvery = 25;

// Both heads run this one explicit schedule. The layers before the first
// Dropout (GcnModel::forward_prefix) draw nothing from the RNG, and an
// epoch's evaluation forward and the next epoch's training forward run them
// on the same weights and the same input. So after each optimizer step the
// prefix runs once, then the rest of the model runs twice over its output:
// first for evaluation (Pass::kInfer, dropout off), then — only if training
// goes on — for the next epoch's training (Pass::kTrain). Every layer sees
// exactly the operands two full forwards would give it, bit for bit.
//
// The evaluation computes only the validation rows: GcnModel::cut_suffix
// derives, once per run, the rows each conv after the prefix must output,
// and forward_suffix(cut) gives each of them the full pass's bits. The
// metric reads them in val_idx order, as it reads the full output, so the
// history and the early stopping are unchanged.
//
// `train_loss(out, grad)` is the head's masked loss over the training rows
// of a Pass::kTrain output, filling `grad`; `val_metric(eval)` scores the
// validation rows of the cut output, higher is better, and `worst` is the
// best value before the first epoch. `head` names the epoch histogram and
// the log lines.
template <typename TrainLoss, typename ValMetric>
TrainHistory train_head(GcnModel& model, const SparseMatrix& adj,
                        const Matrix& x, const std::vector<int>& val_idx,
                        const TrainConfig& config, const char* head,
                        const char* metric, double worst,
                        TrainLoss train_loss, ValMetric val_metric) {
  model.set_adjacency(&adj);
  Adam opt(model.params(), config.lr, config.weight_decay);
  ParamSnapshot best(model);
  TrainHistory history;
  history.best_val_metric = worst;
  int since_best = 0;
  obs::Histogram& epoch_ms =
      obs::registry().histogram(std::string("ml.") + head + ".epoch_ms");

  const SuffixCut val_cut = model.cut_suffix(adj, val_idx);
  Matrix grad;
  model.forward_prefix(x, Pass::kTrain);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::Span epoch_span("epoch", &epoch_ms);
    const double loss = train_loss(model.forward_suffix(Pass::kTrain), grad);
    opt.zero_grad();
    model.backward(grad);
    opt.step();

    model.forward_prefix(x, Pass::kTrain);
    const double val = val_metric(model.forward_suffix(val_cut));
    history.train_loss.push_back(loss);
    history.val_metric.push_back(val);
    epoch_span.close();

    if (val > history.best_val_metric) {
      history.best_val_metric = val;
      history.best_epoch = epoch;
      best.capture();
      since_best = 0;
    } else if (++since_best >= config.patience && config.patience > 0) {
      break;
    }
    if (epoch % kLogEvery == 0)
      obs::logf(obs::LogLevel::kDebug, "%s epoch %4d  loss %.5f  %s %.5f",
                head, epoch, loss, metric, val);
  }
  model.release_workspace();
  best.restore();
  obs::logf(obs::LogLevel::kDebug,
            "train_%s: %zu epochs, best %s %.5f at epoch %d", head,
            history.train_loss.size(), metric, history.best_val_metric,
            history.best_epoch);
  return history;
}

}  // namespace

TrainHistory train_classifier(GcnModel& model, const SparseMatrix& adj,
                              const Matrix& x, const std::vector<int>& labels,
                              const std::vector<int>& train_idx,
                              const std::vector<int>& val_idx,
                              const TrainConfig& config) {
  const std::vector<int> val_labels = gather(labels, val_idx);
  const std::vector<int> val_rows = first_rows(val_idx.size());
  return train_head(
      model, adj, x, val_idx, config, "classifier", "val_acc", -1.0,
      [&](const Matrix& out, Matrix& grad) {
        return masked_nll(out, labels, train_idx, grad);
      },
      [&](const Matrix& eval) {
        return accuracy(predict_labels(eval), val_labels, val_rows);
      });
}

TrainHistory train_regressor(GcnModel& model, const SparseMatrix& adj,
                             const Matrix& x,
                             const std::vector<double>& targets,
                             const std::vector<int>& train_idx,
                             const std::vector<int>& val_idx,
                             const TrainConfig& config) {
  const std::vector<double> val_targets = gather(targets, val_idx);
  const std::vector<int> val_rows = first_rows(val_idx.size());
  Matrix unused;
  return train_head(
      model, adj, x, val_idx, config, "regressor", "-val_mse", -1e30,
      [&](const Matrix& out, Matrix& grad) {
        return masked_mse(out, targets, train_idx, grad);
      },
      [&](const Matrix& eval) {
        return -masked_mse(eval, val_targets, val_rows, unused);
      });
}

}  // namespace fcrit::ml
