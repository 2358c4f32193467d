#include "src/ml/baselines/dtree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace fcrit::ml {

namespace {

double gini(int pos, int total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(pos) / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

/// One tree's samples, presorted: slot s is entry s of train_idx.
struct DecisionTree::Presorted {
  int features;
  int slots;
  std::vector<int> label;    // per slot
  std::vector<float> value;  // feature j of slot s at j * slots + s
  // Per feature, the slots in ascending value (one list even without
  // features: a node's slots are read from order[0]).
  std::vector<std::vector<int>> order;
  std::vector<char> goes_left;  // per slot, at the split being applied
  std::vector<int> spill;       // scratch of the stable partition

  Presorted(const Matrix& x, const std::vector<int>& labels,
            const std::vector<int>& train_idx)
      : features(x.cols()),
        slots(static_cast<int>(train_idx.size())),
        label(train_idx.size()),
        value(train_idx.size() * static_cast<std::size_t>(x.cols())),
        order(static_cast<std::size_t>(std::max(1, x.cols())),
              std::vector<int>(train_idx.size())),
        goes_left(train_idx.size()) {
    for (int t = 0; t < slots; ++t) {
      const int row = train_idx[static_cast<std::size_t>(t)];
      label[static_cast<std::size_t>(t)] =
          labels[static_cast<std::size_t>(row)];
      for (int j = 0; j < features; ++j) at(j, t) = x(row, j);
    }
    for (auto& o : order) std::iota(o.begin(), o.end(), 0);
    for (int j = 0; j < features; ++j) {
      auto& o = order[static_cast<std::size_t>(j)];
      std::sort(o.begin(), o.end(),
                [&](int a, int b) { return at(j, a) < at(j, b); });
    }
  }

  float& at(int j, int slot) {
    return value[static_cast<std::size_t>(j) * slots + slot];
  }
};

void DecisionTree::fit(const Matrix& x, const std::vector<int>& labels,
                       const std::vector<int>& train_idx) {
  if (train_idx.empty())
    throw std::runtime_error("DecisionTree::fit: empty train set");
  nodes_.clear();
  Presorted s(x, labels, train_idx);
  util::Rng rng(config_.seed);
  build(s, 0, s.slots, 0, rng);
}

int DecisionTree::build(Presorted& s, int begin, int end, int depth,
                        util::Rng& rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  const int n = end - begin;
  const int* slots = s.order[0].data();
  int pos = 0;
  for (int k = begin; k < end; ++k)
    pos += s.label[static_cast<std::size_t>(slots[k])];
  nodes_[static_cast<std::size_t>(node_id)].p1 =
      static_cast<double>(pos) / n;

  const bool pure = (pos == 0 || pos == n);
  if (pure || depth >= config_.max_depth || n < 2 * config_.min_samples_leaf)
    return node_id;

  // Feature candidates.
  std::vector<int> features;
  for (int j = 0; j < s.features; ++j) features.push_back(j);
  if (config_.max_features > 0 &&
      config_.max_features < static_cast<int>(features.size())) {
    rng.shuffle(features);
    features.resize(static_cast<std::size_t>(config_.max_features));
  }

  // Best Gini split: each feature's range lists the node's slots in
  // ascending value, so left_pos at the end of a run of equal values counts
  // every slot up to and including that value, whatever the run's order.
  double best_impurity = gini(pos, n);
  int best_feature = -1;
  float best_threshold = 0.0f;
  for (const int j : features) {
    const int* o = s.order[static_cast<std::size_t>(j)].data();
    int left_pos = 0;
    for (int k = begin; k < end - 1; ++k) {
      left_pos += s.label[static_cast<std::size_t>(o[k])];
      const float v = s.at(j, o[k]);
      const float v_next = s.at(j, o[k + 1]);
      if (v == v_next) continue;  // can't split between equal values
      const int left_n = k + 1 - begin;
      const int right_n = n - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf)
        continue;
      const double impurity =
          (static_cast<double>(left_n) / n) * gini(left_pos, left_n) +
          (static_cast<double>(right_n) / n) * gini(pos - left_pos, right_n);
      if (impurity + 1e-12 < best_impurity) {
        best_impurity = impurity;
        best_feature = j;
        // A ±0 ending the run adds exactly, so either zero gives these bits.
        best_threshold = 0.5f * (v + v_next);
      }
    }
  }
  if (best_feature < 0) return node_id;

  int left_n = 0;
  for (int k = begin; k < end; ++k) {
    const int slot = slots[k];
    const bool left = s.at(best_feature, slot) <= best_threshold;
    s.goes_left[static_cast<std::size_t>(slot)] = left;
    left_n += left;
  }
  const int mid = begin + left_n;
  if (mid == begin || mid == end) return node_id;  // degenerate

  // Partition every feature's range stably, so both halves stay sorted.
  for (auto& order : s.order) {
    int* o = order.data();
    s.spill.clear();
    int out = begin;
    for (int k = begin; k < end; ++k) {
      if (s.goes_left[static_cast<std::size_t>(o[k])])
        o[out++] = o[k];
      else
        s.spill.push_back(o[k]);
    }
    std::copy(s.spill.begin(), s.spill.end(), o + out);
  }

  nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
  const int left = build(s, begin, mid, depth + 1, rng);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  const int right = build(s, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

double DecisionTree::predict_one(std::span<const float> row) const {
  if (nodes_.empty()) throw std::runtime_error("DecisionTree: not fitted");
  int cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const Node& nd = nodes_[static_cast<std::size_t>(cur)];
    cur = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold
              ? nd.left
              : nd.right;
  }
  return nodes_[static_cast<std::size_t>(cur)].p1;
}

std::vector<double> DecisionTree::predict_proba(const Matrix& x) const {
  std::vector<double> p(static_cast<std::size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i)
    p[static_cast<std::size_t>(i)] = predict_one(x.row(i));
  return p;
}

int DecisionTree::depth() const {
  std::function<int(int)> walk = [&](int id) -> int {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.feature < 0) return 0;
    return 1 + std::max(walk(nd.left), walk(nd.right));
  };
  return nodes_.empty() ? 0 : walk(0);
}

}  // namespace fcrit::ml
