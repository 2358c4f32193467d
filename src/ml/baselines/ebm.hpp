// Explainable Boosting Machine: a generalized additive model fit by cyclic
// per-feature gradient boosting with histogram (quantile-bin) shape
// functions under logistic loss. Glass-box like the reference
// implementation; interactions are omitted (GA2M pairs are out of scope for
// the paper's comparison). Each feature update adds its bins' deltas to the
// running scores in one pass over the training rows.
#pragma once

#include <cstdint>
#include <vector>

#include "src/ml/baselines/baseline.hpp"

namespace fcrit::ml {

class ExplainableBoosting final : public BaselineClassifier {
 public:
  struct Config {
    int bins = 16;       // quantile bins per feature
    int rounds = 400;    // boosting cycles over all features
    double lr = 0.05;    // shrinkage per update
    std::uint64_t seed = 6;
  };

  ExplainableBoosting() : ExplainableBoosting(Config{}) {}
  explicit ExplainableBoosting(Config config) : config_(config) {}

  void fit(const Matrix& x, const std::vector<int>& labels,
           const std::vector<int>& train_idx) override;
  std::vector<double> predict_proba(const Matrix& x) const override;
  std::string name() const override { return "EBM"; }

  /// Additive score contribution of feature j at value v (the learned shape
  /// function), for interpretability reports.
  double shape(int feature, float value) const;

 private:
  int bin_of(int feature, float value) const;

  Config config_;
  double intercept_ = 0.0;
  std::vector<std::vector<float>> bin_edges_;   // per feature, ascending
  std::vector<std::vector<double>> shape_;      // per feature, per bin
};

}  // namespace fcrit::ml
