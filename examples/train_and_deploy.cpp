// Train once, deploy everywhere: the paper's core economic claim is that
// a GCN trained with FI ground truth on *part* of a design classifies the
// rest without further fault injection. This example draws the deployment
// boundary where `fcrit pack` and `fcrit score` draw it:
//   phase 1 (expensive, offline): FI campaign + training; the model, the
//     feature standardizer and the golden-simulation recipe are packed
//     into one bundle file.
//   phase 2 (cheap, repeatable): a ScoringEngine reads the bundle, extracts
//     features from the netlist alone (golden simulation only — no fault
//     injection), and classifies every node.
//
//   ./train_and_deploy [design]
#include <cstdio>
#include <string>

#include "src/core/pipeline.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"

int main(int argc, char** argv) {
  using namespace fcrit;
  const std::string design_name = argc > 1 ? argv[1] : "or1200_icfsm";
  const std::string bundle_path = "/tmp/fcrit_" + design_name + ".fcm";

  // ---- phase 1: offline training (FI campaign happens here) ---------------
  {
    obs::Span span("offline");
    core::PipelineConfig cfg;
    cfg.train_baselines = false;
    cfg.train_regressor = false;
    core::FaultCriticalityAnalyzer analyzer(cfg);
    const auto r = analyzer.analyze_design(design_name);
    serve::save_bundle_file(serve::pack_bundle(r), bundle_path);
    std::printf("phase 1 (offline): FI + training took %.2f s, val accuracy "
                "%.2f%%\n",
                span.close(), 100.0 * r.gcn_eval.val_accuracy);
    std::printf("  artifact: %s\n", bundle_path.c_str());
  }

  // ---- phase 2: deployment (no fault injection) ------------------------------
  {
    obs::Span span("deploy");
    serve::ScoringEngine engine({.threads = 1});
    const auto design = designs::build_design(design_name);
    const serve::ScoreResult r = engine.score(bundle_path, design);

    std::size_t critical = 0;
    for (const auto node : r.sites)
      critical += static_cast<std::size_t>(
          r.predicted[static_cast<std::size_t>(node)]);
    std::printf("phase 2 (deploy): loaded the bundle, classified %zu nodes "
                "in %.2f s — %zu predicted Critical (netlist %s)\n",
                r.node_names.size(), span.close(), critical,
                r.netlist_matched ? "matched" : "DIFFERS from training");
  }
  return 0;
}
