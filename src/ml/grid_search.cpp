#include "src/ml/grid_search.hpp"

#include "src/util/parallel.hpp"
#include "src/util/text.hpp"

namespace fcrit::ml {

std::string GridTrial::to_string() const {
  std::string s = "hidden=[";
  for (std::size_t i = 0; i < model_config.hidden.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(model_config.hidden[i]);
  }
  s += "] dropout=" + util::format_double(model_config.dropout, 2);
  s += " lr=" + util::format_double(train_config.lr, 4);
  s += " val_acc=" + util::format_double(val_accuracy, 4);
  return s;
}

GridSearchResult grid_search(const SparseMatrix& adj, const Matrix& x,
                             const std::vector<int>& labels,
                             const std::vector<int>& train_idx,
                             const std::vector<int>& val_idx,
                             const GridSearchSpace& space,
                             const TrainConfig& base_config) {
  GridSearchResult result;
  result.best.val_accuracy = -1.0;

  // Flatten the grid so the trials — each an independent training run —
  // shard across the pool at the config level (ISSUE: parallelize here, not
  // inside the tiny per-trial models).
  struct TrialSpec {
    GcnConfig mc;
    TrainConfig tc;
  };
  std::vector<TrialSpec> specs;
  for (const auto& hidden : space.hidden_options) {
    for (const double dropout : space.dropout_options) {
      for (const double lr : space.lr_options) {
        GcnConfig mc = GcnConfig::classifier();
        mc.hidden = hidden;
        mc.dropout = dropout;
        // Keep the dropout position inside the stack.
        mc.dropout_after = hidden.size() >= 2 ? 1 : 0;
        TrainConfig tc = base_config;
        tc.lr = lr;
        specs.push_back({std::move(mc), std::move(tc)});
      }
    }
  }

  result.trials.resize(specs.size());
  util::parallel_for(
      0, static_cast<std::int64_t>(specs.size()), 1,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const TrialSpec& spec = specs[static_cast<std::size_t>(t)];
          GcnModel model(x.cols(), spec.mc);
          const TrainHistory h = train_classifier(model, adj, x, labels,
                                                  train_idx, val_idx, spec.tc);
          result.trials[static_cast<std::size_t>(t)] =
              GridTrial{spec.mc, spec.tc, h.best_val_metric};
        }
      });

  // In-order scan replicates the serial loop's first-strictly-greater
  // tie-break, so the winner is identical no matter the thread count.
  for (const GridTrial& trial : result.trials)
    if (trial.val_accuracy > result.best.val_accuracy) result.best = trial;
  return result;
}

}  // namespace fcrit::ml
