// CART decision tree (Gini impurity) — the unit learner of the Random
// Forest baseline, and usable standalone.
//
// fit() sorts each feature's sample slots once per tree (slot s is entry s
// of train_idx, so a bootstrap bag's repeated rows are separate slots). A
// node owns the same range of every feature's order, its split scan walks
// that range, and the chosen split partitions every range stably, so each
// child's ranges stay sorted. The scan tests splits only between distinct
// values, and the label counts there do not depend on the order within a
// run of equal values (±0 included), so the tree is the one a per-node
// sort of (value, label) pairs would grow, for finite features.
#pragma once

#include <cstdint>
#include <span>

#include "src/ml/baselines/baseline.hpp"
#include "src/util/rng.hpp"

namespace fcrit::ml {

class DecisionTree final : public BaselineClassifier {
 public:
  struct Config {
    int max_depth = 8;
    int min_samples_leaf = 2;
    /// Features considered per split: -1 = all, otherwise a random subset
    /// of this size (Random Forest style).
    int max_features = -1;
    std::uint64_t seed = 4;
  };

  DecisionTree() : DecisionTree(Config{}) {}
  explicit DecisionTree(Config config) : config_(config) {}

  void fit(const Matrix& x, const std::vector<int>& labels,
           const std::vector<int>& train_idx) override;
  std::vector<double> predict_proba(const Matrix& x) const override;
  std::string name() const override { return "DT"; }

  double predict_one(std::span<const float> row) const;

  std::size_t node_count() const { return nodes_.size(); }
  int depth() const;

 private:
  struct Node {
    int feature = -1;       // -1: leaf
    float threshold = 0.0f; // go left if value <= threshold
    int left = -1;
    int right = -1;
    double p1 = 0.5;        // class-1 fraction at this node
  };

  struct Presorted;

  /// Grows the subtree over slots [begin, end) of every feature's order.
  int build(Presorted& s, int begin, int end, int depth, util::Rng& rng);

  Config config_;
  std::vector<Node> nodes_;
};

}  // namespace fcrit::ml
