// Ablation — graph-model family and split robustness.
//
// Compares the full GCN against SGC (Wu et al., the paper's reference
// [12]) at propagation depths k = 1..3 and against the graph-blind MLP,
// and reports 5-fold cross-validated GCN accuracy next to the single-split
// headline number. Expected shape: structure helps (SGC > MLP), depth +
// nonlinearity help further (GCN >= SGC), and the CV mean sits near the
// 80/20 split's number.
#include "bench/bench_common.hpp"
#include "src/ml/baselines/mlp.hpp"
#include "src/ml/crossval.hpp"
#include "src/ml/sgc.hpp"
#include "src/util/text.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Ablation: GCN vs SGC vs MLP; 5-fold cross-validation");

  core::FaultCriticalityAnalyzer analyzer([] {
    auto cfg = bench::standard_config();
    cfg.train_baselines = false;
    cfg.train_regressor = false;
    return cfg;
  }());

  core::TextTable table({"Design", "GCN", "SGC k=1", "SGC k=2", "SGC k=3",
                         "MLP"});
  core::TextTable cv_table({"Design", "80/20 split acc", "5-fold CV acc",
                            "CV stddev", "CV AUC"});

  for (const auto& name : designs::design_names()) {
    auto r = analyzer.analyze_design(name);
    std::vector<std::string> row{name};
    row.push_back(util::format_double(100.0 * r.gcn_eval.val_accuracy, 2));

    for (const int k : {1, 2, 3}) {
      ml::SgcClassifier::Config sc;
      sc.k = k;
      ml::SgcClassifier sgc(sc);
      sgc.fit(r.graph.normalized_adjacency, r.features, r.labels,
              r.split.train);
      row.push_back(util::format_double(
          100.0 * ml::accuracy(sgc.predict_labels(), r.labels, r.split.val),
          2));
    }
    {
      ml::MlpClassifier mlp;
      mlp.fit(r.features, r.labels, r.split.train);
      const auto pred = ml::labels_from_proba(mlp.predict_proba(r.features));
      row.push_back(util::format_double(
          100.0 * ml::accuracy(pred, r.labels, r.split.val), 2));
    }
    table.add_row(row);

    // 5-fold CV on the same labeled population.
    std::vector<int> candidates;
    for (const auto node : r.dataset.nodes)
      candidates.push_back(static_cast<int>(node));
    ml::TrainConfig cv_train = analyzer.config().train;
    cv_train.epochs = 250;
    const auto cv = ml::cross_validate_gcn(
        r.graph.normalized_adjacency, r.features, r.labels, candidates, 5,
        analyzer.config().classifier, cv_train, 77);
    cv_table.add_row({name,
                      util::format_double(100.0 * r.gcn_eval.val_accuracy, 2),
                      util::format_double(100.0 * cv.mean_accuracy, 2),
                      util::format_double(100.0 * cv.stddev_accuracy, 2),
                      util::format_double(cv.mean_auc, 3)});
    std::printf("%s done\n", name.c_str());
  }

  std::printf("\nmodel family (val accuracy %%)\n%s\n",
              table.to_string().c_str());
  std::printf("split robustness\n%s\n", cv_table.to_string().c_str());
  return 0;
}
