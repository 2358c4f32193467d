#include "src/ml/crossval.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/ml/metrics.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/text.hpp"

namespace fcrit::ml {

std::string CrossValResult::to_string() const {
  std::string out = "cv accuracy " +
                    util::format_double(100.0 * mean_accuracy, 2) + "% +/- " +
                    util::format_double(100.0 * stddev_accuracy, 2) +
                    " (auc " + util::format_double(mean_auc, 3) + "; folds:";
  for (const double a : fold_accuracy) {
    out += " ";
    out += util::format_double(100.0 * a, 1);
  }
  out += ")";
  return out;
}

CrossValResult cross_validate_gcn(const SparseMatrix& adj, const Matrix& x,
                                  const std::vector<int>& labels,
                                  const std::vector<int>& candidates,
                                  int num_folds, const GcnConfig& model_config,
                                  const TrainConfig& train_config,
                                  std::uint64_t seed) {
  if (num_folds < 2)
    throw std::runtime_error("cross_validate_gcn: need >= 2 folds");
  if (candidates.size() < static_cast<std::size_t>(2 * num_folds))
    throw std::runtime_error("cross_validate_gcn: too few candidates");

  // Stratified fold assignment: shuffle within each class, deal round-robin.
  util::Rng rng(seed);
  std::vector<int> fold_of_candidate(candidates.size());
  std::vector<std::size_t> by_class[2];
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const int y = labels[static_cast<std::size_t>(candidates[i])];
    if (y != 0 && y != 1)
      throw std::runtime_error("cross_validate_gcn: labels must be binary");
    by_class[y].push_back(i);
  }
  for (auto& bucket : by_class) {
    rng.shuffle(bucket);
    for (std::size_t k = 0; k < bucket.size(); ++k)
      fold_of_candidate[bucket[k]] = static_cast<int>(k) % num_folds;
  }

  // Folds are fully independent (each trains its own model on its own seed),
  // so they shard across the pool. Results land in preallocated slots by
  // fold index, matching the serial loop's ordering exactly; kernels invoked
  // inside a worker run inline (nested regions degrade to serial), so each
  // fold's arithmetic is identical to the serial path.
  CrossValResult result;
  result.fold_accuracy.assign(static_cast<std::size_t>(num_folds), 0.0);
  result.fold_auc.assign(static_cast<std::size_t>(num_folds), 0.0);
  util::parallel_for(0, num_folds, 1, [&](std::int64_t f0, std::int64_t f1) {
    for (int fold = static_cast<int>(f0); fold < static_cast<int>(f1);
         ++fold) {
      std::vector<int> train, val;
      for (std::size_t i = 0; i < candidates.size(); ++i)
        (fold_of_candidate[i] == fold ? val : train).push_back(candidates[i]);
      if (val.empty() || train.empty())
        throw std::runtime_error("cross_validate_gcn: empty fold");

      GcnConfig mc = model_config;
      mc.seed = seed ^ (static_cast<std::uint64_t>(fold) << 17);
      GcnModel model(x.cols(), mc);
      train_classifier(model, adj, x, labels, train, val, train_config);
      const Matrix out = model.forward(x, false);
      result.fold_accuracy[static_cast<std::size_t>(fold)] =
          accuracy(predict_labels(out), labels, val);
      bool has_pos = false, has_neg = false;
      for (const int i : val)
        (labels[static_cast<std::size_t>(i)] ? has_pos : has_neg) = true;
      result.fold_auc[static_cast<std::size_t>(fold)] =
          has_pos && has_neg ? roc_auc(class1_probability(out), labels, val)
                             : 0.5;
    }
  });

  const double n = static_cast<double>(num_folds);
  for (const double a : result.fold_accuracy) result.mean_accuracy += a / n;
  for (const double a : result.fold_auc) result.mean_auc += a / n;
  double var = 0.0;
  for (const double a : result.fold_accuracy)
    var += (a - result.mean_accuracy) * (a - result.mean_accuracy) / n;
  result.stddev_accuracy = std::sqrt(var);
  return result;
}

}  // namespace fcrit::ml
