// §3.3.2 — hyperparameter grid search.
//
// Runs the grid search the paper describes ("sweeping through parameters
// like the number of layers, layer types, and input-output feature
// dimensions") on each design and prints every trial plus the winner.
// Expected shape: the Table-1 architecture ({16,32,64}, dropout 0.3) sits
// at or near the top of the grid.
#include "bench/bench_common.hpp"
#include "src/ml/grid_search.hpp"
#include "src/obs/trace.hpp"
#include "src/util/text.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Section 3.3.2: hyperparameter grid search");

  core::FaultCriticalityAnalyzer analyzer([] {
    auto cfg = bench::standard_config();
    cfg.train_baselines = false;
    cfg.train_regressor = false;
    return cfg;
  }());

  ml::GridSearchSpace space;
  space.hidden_options = {{16, 32}, {16, 32, 64}, {32, 64}};
  space.dropout_options = {0.0, 0.3, 0.5};
  space.lr_options = {0.01, 0.003};

  for (const auto& name : designs::design_names()) {
    auto r = analyzer.analyze_design(name);
    ml::TrainConfig base = analyzer.config().train;
    base.epochs = 250;

    obs::Span span("grid_search");
    const auto result =
        ml::grid_search(r.graph.normalized_adjacency, r.features, r.labels,
                        r.split.train, r.split.val, space, base);
    std::printf("\n%s — %zu trials in %.2f s\n", name.c_str(),
                result.trials.size(), span.close());
    for (const auto& trial : result.trials)
      std::printf("  %s%s\n", trial.to_string().c_str(),
                  trial.val_accuracy == result.best.val_accuracy ? "  <-- best"
                                                                 : "");
    std::printf("  winner: %s\n", result.best.to_string().c_str());
  }
  std::printf(
      "\nexpected shape: the paper's Table-1 stack (hidden=[16,32,64],\n"
      "dropout=0.3) scores at or near the best trial on every design.\n");
  return 0;
}
