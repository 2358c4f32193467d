#include "src/ml/baselines/ebm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fcrit::ml {

namespace {
double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

int ExplainableBoosting::bin_of(int feature, float value) const {
  const auto& edges = bin_edges_[static_cast<std::size_t>(feature)];
  // edges[k] is the upper edge of bin k (except the last bin is open).
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  const int bin = static_cast<int>(it - edges.begin());
  const int last =
      static_cast<int>(shape_[static_cast<std::size_t>(feature)].size()) - 1;
  return std::min(bin, last);
}

void ExplainableBoosting::fit(const Matrix& x, const std::vector<int>& labels,
                              const std::vector<int>& train_idx) {
  if (train_idx.empty()) throw std::runtime_error("EBM::fit: empty train set");
  const int f = x.cols();
  const std::size_t n = train_idx.size();

  // Quantile bin edges per feature.
  bin_edges_.assign(static_cast<std::size_t>(f), {});
  shape_.assign(static_cast<std::size_t>(f), {});
  for (int j = 0; j < f; ++j) {
    std::vector<float> vals(n);
    for (std::size_t i = 0; i < n; ++i)
      vals[i] = x(train_idx[i], j);
    std::sort(vals.begin(), vals.end());
    std::vector<float> edges;
    for (int b = 1; b < config_.bins; ++b) {
      const auto q = static_cast<std::size_t>(
          static_cast<double>(b) / config_.bins * static_cast<double>(n - 1));
      const float e = vals[q];
      if (edges.empty() || e > edges.back()) edges.push_back(e);
    }
    bin_edges_[static_cast<std::size_t>(j)] = std::move(edges);
    shape_[static_cast<std::size_t>(j)].assign(
        bin_edges_[static_cast<std::size_t>(j)].size() + 1, 0.0);
  }

  // Intercept: base-rate log odds.
  int pos = 0;
  for (const int i : train_idx) pos += labels[static_cast<std::size_t>(i)];
  const double rate =
      std::clamp(static_cast<double>(pos) / static_cast<double>(n), 1e-6,
                 1.0 - 1e-6);
  intercept_ = std::log(rate / (1.0 - rate));

  // Precompute bins and maintain running scores for the training rows.
  std::vector<std::vector<int>> row_bin(
      static_cast<std::size_t>(f), std::vector<int>(n));
  for (int j = 0; j < f; ++j)
    for (std::size_t i = 0; i < n; ++i)
      row_bin[static_cast<std::size_t>(j)][i] = bin_of(j, x(train_idx[i], j));
  std::vector<double> score(n, intercept_);

  // Cyclic per-feature boosting.
  std::vector<double> grad_sum, delta;
  std::vector<int> grad_cnt;
  for (int round = 0; round < config_.rounds; ++round) {
    for (int j = 0; j < f; ++j) {
      auto& shape = shape_[static_cast<std::size_t>(j)];
      grad_sum.assign(shape.size(), 0.0);
      grad_cnt.assign(shape.size(), 0);
      const std::vector<int>& bins = row_bin[static_cast<std::size_t>(j)];
      for (std::size_t i = 0; i < n; ++i) {
        const double p = sigmoid(score[i]);
        const double residual =
            static_cast<double>(
                labels[static_cast<std::size_t>(train_idx[i])]) -
            p;
        const int b = bins[i];
        grad_sum[static_cast<std::size_t>(b)] += residual;
        grad_cnt[static_cast<std::size_t>(b)] += 1;
      }
      // Each row's bin counted the row, so one pass gives every row
      // exactly one addition: its own bin's delta.
      delta.assign(shape.size(), 0.0);
      for (std::size_t b = 0; b < shape.size(); ++b) {
        if (grad_cnt[b] == 0) continue;
        delta[b] = config_.lr * grad_sum[b] / static_cast<double>(grad_cnt[b]);
        shape[b] += delta[b];
      }
      for (std::size_t i = 0; i < n; ++i)
        score[i] += delta[static_cast<std::size_t>(bins[i])];
    }
  }

  // Center shapes (cosmetic for interpretability; absorbed by intercept).
  for (auto& shape : shape_) {
    double mean = 0.0;
    for (const double v : shape) mean += v;
    mean /= static_cast<double>(shape.size());
    for (double& v : shape) v -= mean;
    intercept_ += mean;
  }
}

double ExplainableBoosting::shape(int feature, float value) const {
  if (shape_.empty()) throw std::runtime_error("EBM: not fitted");
  return shape_[static_cast<std::size_t>(feature)]
               [static_cast<std::size_t>(bin_of(feature, value))];
}

std::vector<double> ExplainableBoosting::predict_proba(const Matrix& x) const {
  if (shape_.empty()) throw std::runtime_error("EBM: not fitted");
  std::vector<double> p(static_cast<std::size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i) {
    double z = intercept_;
    for (int j = 0; j < x.cols(); ++j) z += shape(j, x(i, j));
    p[static_cast<std::size_t>(i)] = sigmoid(z);
  }
  return p;
}

}  // namespace fcrit::ml
