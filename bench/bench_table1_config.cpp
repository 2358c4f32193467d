// Table 1 — GCN network configuration.
//
// Prints the layer stack of the classifier (and the §3.4 regressor variant)
// exactly as constructed by ml::GcnModel, so the architecture the rest of
// the benches train is auditable against the paper's Table 1.
#include "bench/bench_common.hpp"
#include "src/graphir/features.hpp"
#include "src/ml/gcn.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Table 1: GCN network configuration");

  const int f = graphir::kNumBaseFeatures;
  ml::GcnModel classifier(f, ml::GcnConfig::classifier());
  std::printf("input features F = %d (%s)\n\n", f,
              "Table 2 feature columns");
  std::printf("classifier (Table 1):\n%s\n",
              classifier.describe().c_str());

  ml::GcnModel regressor(f, ml::GcnConfig::regressor());
  std::printf("regressor (Section 3.4 modification):\n%s\n",
              regressor.describe().c_str());

  core::TextTable table({"Layer", "Type", "In", "Out", "Values"});
  table.add_row({"1", "Graph convolutional layer", "Input", "16", "-"});
  table.add_row({"2", "Rectified Linear Unit", "-", "-", "-"});
  table.add_row({"3", "Graph convolutional layer", "16", "32", "-"});
  table.add_row({"4", "Rectified Linear Unit", "-", "-", "-"});
  table.add_row({"5", "Dropout Layer", "-", "-", "0.3"});
  table.add_row({"6", "Graph convolutional layer", "32", "64", "-"});
  table.add_row({"7", "Rectified Linear Unit", "-", "-", "-"});
  table.add_row({"8", "Graph convolutional layer", "64", "2", "-"});
  table.add_row({"9", "Log Softmax", "2", "2", "-"});
  std::printf("paper's Table 1 for reference:\n%s\n",
              table.to_string().c_str());
  return 0;
}
