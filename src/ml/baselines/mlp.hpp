// Multi-layer perceptron baseline: Linear -> ReLU -> Linear -> ReLU ->
// Linear(2) -> LogSoftmax, trained full-batch with Adam on the training
// rows. Reuses the layer stack of the GCN (without graph propagation).
// fit() runs forward and backward over the training rows alone, gathered
// in ascending row order: with finite features, the other rows would add
// only ±0 terms to the weight gradients, so the weights are bit for bit
// those of training over every row with the loss masked to train_idx.
#pragma once

#include <cstdint>
#include <memory>

#include "src/ml/baselines/baseline.hpp"
#include "src/ml/layers.hpp"

namespace fcrit::ml {

class MlpClassifier final : public BaselineClassifier {
 public:
  struct Config {
    std::vector<int> hidden = {32, 16};
    int epochs = 400;
    double lr = 0.01;
    double weight_decay = 1e-4;
    std::uint64_t seed = 2;
  };

  MlpClassifier() : MlpClassifier(Config{}) {}
  explicit MlpClassifier(Config config) : config_(std::move(config)) {}

  void fit(const Matrix& x, const std::vector<int>& labels,
           const std::vector<int>& train_idx) override;
  std::vector<double> predict_proba(const Matrix& x) const override;
  std::string name() const override { return "MLP"; }

 private:
  /// Runs every layer in `pass`; the output stays in the last layer's
  /// buffer until the layers are released.
  const Matrix& forward(const Matrix& x, Pass pass) const;
  void release() const;

  Config config_;
  mutable util::Rng rng_{2};
  mutable std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fcrit::ml
