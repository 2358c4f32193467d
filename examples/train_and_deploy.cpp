// Train once, deploy everywhere: the paper's core economic claim is that
// a GCN trained with FI ground truth on *part* of a design classifies the
// rest without further fault injection. This example makes the deployment
// boundary explicit:
//   phase 1 (expensive, offline): FI campaign + training; model and
//     feature standardizer are saved to disk.
//   phase 2 (cheap, repeatable): load the artifacts, extract features from
//     the netlist alone (golden simulation only — no fault injection), and
//     classify every node.
//
//   ./train_and_deploy [design]
#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/serialize.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/probability.hpp"

int main(int argc, char** argv) {
  using namespace fcrit;
  const std::string design_name = argc > 1 ? argv[1] : "or1200_icfsm";
  const std::string model_path = "/tmp/fcrit_" + design_name + ".gcn";
  const std::string std_path = "/tmp/fcrit_" + design_name + ".std";

  // ---- phase 1: offline training (FI campaign happens here) ---------------
  {
    obs::Span span("offline");
    core::PipelineConfig cfg;
    cfg.train_baselines = false;
    cfg.train_regressor = false;
    core::FaultCriticalityAnalyzer analyzer(cfg);
    const auto r = analyzer.analyze_design(design_name);
    ml::save_gcn_file(*r.gcn, model_path);
    std::ofstream std_out(std_path);
    ml::save_standardizer(r.standardizer, std_out);
    std::printf("phase 1 (offline): FI + training took %.2f s, val accuracy "
                "%.2f%%\n",
                span.close(), 100.0 * r.gcn_eval.val_accuracy);
    std::printf("  artifacts: %s, %s\n", model_path.c_str(),
                std_path.c_str());
  }

  // ---- phase 2: deployment (no fault injection) ------------------------------
  {
    obs::Span span("deploy");
    const auto design = designs::build_design(design_name);
    // Feature extraction needs only a golden simulation.
    const auto stats =
        sim::estimate_by_simulation(design.netlist, design.stimulus, 99, 512);
    const auto raw = graphir::extract_features(design.netlist, stats);
    std::ifstream std_in(std_path);
    const auto standardizer = ml::load_standardizer(std_in);
    const auto x = standardizer.transform(raw);
    const auto graph = graphir::build_graph(design.netlist);

    ml::GcnModel model = ml::load_gcn_file(model_path);
    model.set_adjacency(&graph.normalized_adjacency);
    const auto out = model.forward(x, /*training=*/false);
    const auto predicted = ml::predict_labels(out);

    std::size_t critical = 0;
    for (const auto node : fault::fault_sites(design.netlist))
      critical += static_cast<std::size_t>(
          predicted[static_cast<std::size_t>(node)]);
    std::printf("phase 2 (deploy): loaded model, classified %zu nodes in "
                "%.2f s — %zu predicted Critical\n",
                design.netlist.num_nodes(), span.close(), critical);
  }
  return 0;
}
