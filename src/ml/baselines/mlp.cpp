#include "src/ml/baselines/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/ml/optimizer.hpp"

namespace fcrit::ml {

const Matrix& MlpClassifier::forward(const Matrix& x, Pass pass) const {
  // fit() puts the input Linear first; it reads the caller's x.
  Matrix* h = &static_cast<Linear&>(*layers_.front()).forward(x, pass);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    h = &layers_[i]->forward(*h, pass);
  return *h;
}

void MlpClassifier::release() const {
  for (const auto& layer : layers_) layer->release();
}

void MlpClassifier::fit(const Matrix& x, const std::vector<int>& labels,
                        const std::vector<int>& train_idx) {
  if (train_idx.empty()) throw std::runtime_error("MLP::fit: empty train set");
  rng_ = util::Rng(config_.seed);
  layers_.clear();
  int width = x.cols();
  for (const int h : config_.hidden) {
    layers_.push_back(std::make_unique<Linear>(width, h, rng_));
    layers_.push_back(std::make_unique<Relu>());
    width = h;
  }
  layers_.push_back(std::make_unique<Linear>(width, 2, rng_));
  layers_.push_back(std::make_unique<LogSoftmax>());

  std::vector<Param> params;
  for (const auto& layer : layers_) layer->collect_params(params);
  Adam opt(params, config_.lr, config_.weight_decay);

  // The loss reads only the training rows, so training runs on them alone,
  // gathered in ascending row order; `mask` lists each entry of train_idx
  // by its place among them. Any other row's loss gradient is +0 and stays
  // +0 back through every layer, so over all rows it would add only ±0
  // terms to weight-gradient sums that start at +0, which changes none of
  // them: every weight comes out bit for bit the same.
  std::vector<int> rows = train_idx;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  Matrix xt(static_cast<int>(rows.size()), x.cols());
  std::vector<int> yt(rows.size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    const auto src = x.row(rows[t]);
    std::copy(src.begin(), src.end(), xt.row(static_cast<int>(t)).begin());
    yt[t] = labels[static_cast<std::size_t>(rows[t])];
  }
  std::vector<int> mask(train_idx.size());
  for (std::size_t t = 0; t < mask.size(); ++t)
    mask[t] = static_cast<int>(
        std::lower_bound(rows.begin(), rows.end(), train_idx[t]) -
        rows.begin());

  Matrix grad;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    masked_nll(forward(xt, Pass::kTrain), yt, mask, grad);
    opt.zero_grad();
    // Nothing reads the input gradient, so the first layer skips it.
    Matrix* g = &grad;
    for (std::size_t i = layers_.size(); i-- > 0;)
      g = &layers_[i]->backward(*g, i > 0);
    opt.step();
  }
  release();
}

std::vector<double> MlpClassifier::predict_proba(const Matrix& x) const {
  if (layers_.empty()) throw std::runtime_error("MLP::predict: not fitted");
  const Matrix& logp = forward(x, Pass::kInfer);
  std::vector<double> p(static_cast<std::size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i)
    p[static_cast<std::size_t>(i)] = std::exp(static_cast<double>(logp(i, 1)));
  release();
  return p;
}

}  // namespace fcrit::ml
