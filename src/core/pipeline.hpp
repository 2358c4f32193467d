// The end-to-end framework of the paper's Fig. 2.
//
// FaultCriticalityAnalyzer::analyze() chains every stage:
//   design netlist -> golden simulation (signal statistics) -> FI campaign
//   -> Algorithm-1 dataset -> circuit graph + §3.1 features -> 80/20
//   stratified split -> GCN classifier training -> baseline comparison ->
//   GCN regressor (criticality scores) -> evaluation metrics.
// The returned PipelineResult carries every intermediate product so the
// benches (Fig. 3/4/5, Table 2) and examples can consume whichever stage
// they need. GNNExplainer runs on top of the result (see src/explain).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/fault/dataset.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/graphir/features.hpp"
#include "src/graphir/graph.hpp"
#include "src/graphir/split.hpp"
#include "src/ml/baselines/baseline.hpp"
#include "src/ml/gcn.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/trainer.hpp"

namespace fcrit::core {

struct PipelineConfig {
  // Signal-statistics estimation (§3.1 features).
  int probability_cycles = 512;
  std::uint64_t probability_seed = 99;

  // Fault-injection campaign (§3.2).
  int campaign_cycles = 256;
  std::uint64_t campaign_seed = 7;
  /// Number of 64-workload campaign batches (each with a derived seed):
  /// Algorithm 1 aggregates over N = 64 * batches workloads.
  int workload_batches = 1;
  /// Overrides the design's dangerous_cycle_fraction when >= 0.
  double dangerous_cycle_fraction = -1.0;
  /// The campaign always runs the event-driven frontier engine;
  /// collapse-equivalence sharing is passed straight through to
  /// CampaignConfig (bit-identical either way — the `fcrit check`
  /// campaign oracle holds that line).
  bool campaign_collapse_equivalent = true;
  /// No effect, like CampaignConfig::batch_faults and static_prune: the
  /// pipeline reads none of these. Kept so existing callers that assign
  /// them still compile.
  fault::FiEngine campaign_engine = fault::FiEngine::kFrontier;
  bool campaign_batch_faults = true;
  bool campaign_static_prune = true;
  /// Worker threads for the campaign shards (-1 = inherit process pool).
  int campaign_threads = -1;

  // Algorithm 1 threshold.
  double criticality_threshold = 0.5;

  // Split (§4.1).
  double train_fraction = 0.8;
  std::uint64_t split_seed = 123;

  // GCN (Table 1) and training.
  ml::GcnConfig classifier = ml::GcnConfig::classifier();
  ml::TrainConfig train{.epochs = 400, .lr = 0.01, .weight_decay = 5e-4,
                        .patience = 80, .verbose = false, .log_every = 25};

  // Regressor (§3.4).
  bool train_regressor = true;
  ml::TrainConfig regressor_train{.epochs = 400, .lr = 0.01,
                                  .weight_decay = 1e-4, .patience = 80,
                                  .verbose = false, .log_every = 25};

  // Baselines (Fig. 3 comparison).
  bool train_baselines = true;
  std::uint64_t baseline_seed = 11;

  // Worker threads for the ML kernels (src/util/parallel.hpp).
  // -1 inherits the process-wide setting (FCRIT_THREADS or all cores),
  // 0 uses all hardware threads, 1 forces the exact serial path. Results
  // are bitwise-identical across all values.
  int jobs = -1;
};

/// One trained model's validation-set evaluation.
struct ModelEval {
  std::string name;
  std::vector<double> proba;   // P(Critical) per graph node
  std::vector<int> predicted;  // class per graph node
  double val_accuracy = 0.0;
  double val_auc = 0.0;
  ml::Confusion val_confusion;
};

struct RegressionEval {
  std::vector<double> predicted_score;  // per graph node
  double val_mse = 0.0;
  double val_pearson = 0.0;
  double val_spearman = 0.0;
  /// Fraction of validation nodes where thresholding the predicted score
  /// agrees with the classifier's predicted class (§4.2.2 conformity).
  double classifier_conformity = 0.0;
};

struct PipelineResult {
  /// The exact configuration that produced this result — deployment
  /// provenance (serve::pack_bundle records the pieces the score path
  /// must replay: probability seed/cycles, criticality threshold).
  PipelineConfig config;

  designs::Design design;
  sim::SignalStats stats;
  /// First campaign batch (additional batches in extra_campaigns).
  fault::CampaignResult campaign;
  std::vector<fault::CampaignResult> extra_campaigns;
  fault::CriticalityDataset dataset;
  graphir::CircuitGraph graph;
  ml::Matrix features_raw;
  ml::Matrix features;  // standardized
  graphir::Standardizer standardizer;
  std::vector<int> labels;     // per node id (0 outside fault sites)
  std::vector<double> scores;  // NodeCritic per node id
  graphir::Split split;

  std::unique_ptr<ml::GcnModel> gcn;
  ml::TrainHistory gcn_history;
  ModelEval gcn_eval;
  std::vector<ModelEval> baseline_evals;

  std::unique_ptr<ml::GcnModel> regressor;
  std::optional<RegressionEval> regression;

  // Cost accounting for the FI-vs-ML comparison.
  double fi_seconds = 0.0;
  double train_seconds = 0.0;
  double inference_seconds = 0.0;
};

class FaultCriticalityAnalyzer {
 public:
  explicit FaultCriticalityAnalyzer(PipelineConfig config = {})
      : config_(std::move(config)) {}

  const PipelineConfig& config() const { return config_; }

  PipelineResult analyze(designs::Design design) const;

  /// Convenience: build a registered design and analyze it.
  PipelineResult analyze_design(const std::string& name) const;

 private:
  PipelineConfig config_;
};

}  // namespace fcrit::core
