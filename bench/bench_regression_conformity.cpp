// Section 4.2.2 — node criticality score prediction.
//
// Quantifies the paper's claim that the regressor's scores "extend
// uniformly across all nodes ... with high conformity with the
// classification model" (stated as over 85% correlation in Section 5):
// per design we report validation MSE, Pearson/Spearman correlation with
// the ground-truth Algorithm-1 scores, and the fraction of validation
// nodes where thresholding the predicted score at 0.5 reproduces the
// classifier's predicted class.
#include "bench/bench_common.hpp"
#include "src/util/text.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Section 4.2.2: criticality score regression");

  core::FaultCriticalityAnalyzer analyzer([] {
    auto cfg = bench::standard_config();
    cfg.train_baselines = false;
    return cfg;
  }());

  core::TextTable table({"Design", "Val MSE", "Pearson", "Spearman",
                         "Conformity (%)", "Val accuracy (%)"});
  for (const auto& name : designs::design_names()) {
    auto r = analyzer.analyze_design(name);
    const auto& reg = *r.regression;
    table.add_row({name, util::format_double(reg.val_mse, 4),
                   util::format_double(reg.val_pearson, 3),
                   util::format_double(reg.val_spearman, 3),
                   util::format_double(100.0 * reg.classifier_conformity, 1),
                   util::format_double(100.0 * r.gcn_eval.val_accuracy, 2)});

    // A few spot rows, Table-2 style.
    std::printf("%s sample (true score -> predicted score, label):\n",
                name.c_str());
    int shown = 0;
    for (const int i : r.split.val) {
      if (shown >= 4) break;
      std::printf("  %-12s %.2f -> %.2f  %s\n",
                  r.design.netlist.node(static_cast<netlist::NodeId>(i))
                      .name.c_str(),
                  r.scores[static_cast<std::size_t>(i)],
                  reg.predicted_score[static_cast<std::size_t>(i)],
                  r.labels[static_cast<std::size_t>(i)] ? "Critical"
                                                        : "Non-critical");
      ++shown;
    }
  }

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "paper reference: score predictions conform with the classifier for\n"
      "well over 85%% of nodes; e.g. SDRAM node ND4_U233 classified\n"
      "Critical with predicted score 0.7 >= th = 0.5.\n");
  return 0;
}
