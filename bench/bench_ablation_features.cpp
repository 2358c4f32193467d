// Ablation — node feature sets.
//
// The paper's §3.1 feature set (5 features, Table 2 columns) against two
// richer sets built from the same substrates:
//   extended    +logic depth, +is-flip-flop, +fanin count      (8 features)
//   testability +SCOAP log CC0/CC1/CO                          (11 features)
// Reports GCN validation accuracy/AUC per feature set per design. Expected
// shape: the paper's 5 features already carry most of the signal; SCOAP
// adds a little on the harder designs.
#include "bench/bench_common.hpp"
#include "src/graphir/features.hpp"
#include "src/ml/trainer.hpp"
#include "src/util/text.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Ablation: node feature sets (GCN accuracy / AUC)");

  core::FaultCriticalityAnalyzer analyzer([] {
    auto cfg = bench::standard_config();
    cfg.train_baselines = false;
    cfg.train_regressor = false;
    return cfg;
  }());

  core::TextTable table({"Design", "paper-5 acc", "paper-5 AUC",
                         "extended-8 acc", "extended-8 AUC",
                         "testability-11 acc", "testability-11 AUC"});

  for (const auto& name : designs::design_names()) {
    auto r = analyzer.analyze_design(name);
    std::vector<std::string> row{name};
    row.push_back(util::format_double(100.0 * r.gcn_eval.val_accuracy, 2));
    row.push_back(util::format_double(r.gcn_eval.val_auc, 3));

    for (const int variant : {0, 1}) {
      const ml::Matrix raw =
          variant == 0
              ? graphir::extract_extended_features(r.design.netlist, r.stats)
              : graphir::extract_testability_features(r.design.netlist,
                                                      r.stats);
      const auto std_ = graphir::Standardizer::fit(raw, r.split.train);
      const ml::Matrix x = std_.transform(raw);
      ml::GcnModel model(x.cols(), analyzer.config().classifier);
      const auto h = ml::train_classifier(
          model, r.graph.normalized_adjacency, x, r.labels, r.split.train,
          r.split.val, analyzer.config().train);
      const ml::Matrix out = model.forward(x, false);
      const double auc_v = ml::roc_auc(ml::class1_probability(out), r.labels,
                                       r.split.val);
      row.push_back(util::format_double(100.0 * h.best_val_metric, 2));
      row.push_back(util::format_double(auc_v, 3));
    }
    table.add_row(row);
    std::printf("%s done\n", name.c_str());
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "feature sets: paper-5 = Section 3.1 / Table 2 columns; extended-8\n"
      "adds structural depth/kind; testability-11 adds SCOAP CC0/CC1/CO.\n");
  return 0;
}
