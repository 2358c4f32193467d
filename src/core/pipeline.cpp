#include "src/core/pipeline.hpp"

#include <stdexcept>

#include "src/lint/lint.hpp"
#include "src/obs/log.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/probability.hpp"
#include "src/util/parallel.hpp"

namespace fcrit::core {

namespace {

ModelEval evaluate_model(std::string name, std::vector<double> proba,
                         std::vector<int> predicted,
                         const std::vector<int>& labels,
                         const std::vector<int>& val_idx) {
  ModelEval eval;
  eval.name = std::move(name);
  eval.proba = std::move(proba);
  eval.predicted = std::move(predicted);
  eval.val_confusion = ml::confusion(eval.predicted, labels, val_idx);
  eval.val_accuracy = eval.val_confusion.accuracy();
  // AUC is undefined when the validation split holds a single class (tiny
  // or near-uniform designs); report the chance value instead of throwing.
  bool has_pos = false, has_neg = false;
  for (const int i : val_idx)
    (labels[static_cast<std::size_t>(i)] == 1 ? has_pos : has_neg) = true;
  eval.val_auc = (has_pos && has_neg)
                     ? ml::roc_auc(eval.proba, labels, val_idx)
                     : 0.5;
  return eval;
}

}  // namespace

PipelineResult FaultCriticalityAnalyzer::analyze(
    designs::Design design) const {
  if (config_.jobs >= 0) util::set_num_threads(config_.jobs);
  PipelineResult r;
  r.config = config_;
  r.design = std::move(design);
  const netlist::Netlist& nl = r.design.netlist;
  nl.validate();
  obs::logf(obs::LogLevel::kDebug, "pipeline: %s, %zu nodes",
            r.design.name.c_str(), nl.num_nodes());

  // ---- lint preflight: reject structurally broken inputs up front ---------
  // Only the rules that can report an error run here (src/lint); the
  // graph-IR consistency rules gate again before training.
  {
    obs::Span span("lint");
    lint::LintReport preflight = lint::preflight(nl);
    preflight.target_name = r.design.name;
    if (preflight.errors() > 0) throw lint::LintError(std::move(preflight));
    obs::logf(obs::LogLevel::kDebug, "pipeline: lint preflight clean");
  }

  // ---- golden simulation: signal statistics for the §3.1 features ---------
  {
    obs::Span span("golden_sim");
    r.stats = sim::estimate_by_simulation(nl, r.design.stimulus,
                                          config_.probability_seed,
                                          config_.probability_cycles);
  }

  // ---- fault-injection campaign + Algorithm 1 ------------------------------
  {
    obs::Span span("fi_campaign");
    fault::CampaignConfig cc;
    cc.cycles = config_.campaign_cycles;
    cc.dangerous_cycle_fraction = config_.dangerous_cycle_fraction >= 0
                                      ? config_.dangerous_cycle_fraction
                                      : r.design.dangerous_cycle_fraction;
    cc.collapse_equivalent = config_.campaign_collapse_equivalent;
    cc.num_threads = config_.campaign_threads;
    const int batches = std::max(1, config_.workload_batches);
    for (int b = 0; b < batches; ++b) {
      cc.seed = config_.campaign_seed + 7919ULL * static_cast<std::uint64_t>(b);
      fault::FaultCampaign campaign(nl, r.design.stimulus, cc);
      if (b == 0)
        r.campaign = campaign.run_all();
      else
        r.extra_campaigns.push_back(campaign.run_all());
    }
    r.fi_seconds = span.close();
    obs::logf(obs::LogLevel::kDebug,
              "pipeline: FI campaign %.3fs (%d batch(es), %zu faults)",
              r.fi_seconds, batches, r.campaign.faults.size());
  }
  {
    std::vector<const fault::CampaignResult*> batches{&r.campaign};
    for (const auto& extra : r.extra_campaigns) batches.push_back(&extra);
    r.dataset =
        fault::generate_dataset(batches, config_.criticality_threshold);
  }

  // ---- graph + features ------------------------------------------------------
  {
    obs::Span span("graph_features");
    r.graph = graphir::build_graph(nl);
    r.features_raw = graphir::extract_features(nl, r.stats);
  }

  r.labels.assign(nl.num_nodes(), 0);
  r.scores.assign(nl.num_nodes(), 0.0);
  std::vector<int> candidates;
  candidates.reserve(r.dataset.size());
  for (std::size_t i = 0; i < r.dataset.size(); ++i) {
    const auto id = r.dataset.nodes[i];
    r.labels[id] = r.dataset.label[i];
    r.scores[id] = r.dataset.score[i];
    candidates.push_back(static_cast<int>(id));
  }

  r.split = graphir::stratified_split(candidates, r.labels,
                                      config_.train_fraction,
                                      config_.split_seed);

  // ---- graph-IR consistency gate: never train on drifted artifacts --------
  {
    lint::LintReport gate;
    gate.target_name = r.design.name;
    lint::lint_graphir(nl,
                       {.graph = &r.graph,
                        .features = &r.features_raw,
                        .labels = &r.labels,
                        .split = &r.split},
                       gate);
    if (gate.errors() > 0) throw lint::LintError(std::move(gate));
  }

  r.standardizer = graphir::Standardizer::fit(r.features_raw, r.split.train);
  r.features = r.standardizer.transform(r.features_raw);

  // ---- GCN classifier ----------------------------------------------------------
  {
    obs::Span span("gcn_train");
    r.gcn = std::make_unique<ml::GcnModel>(r.features.cols(),
                                           config_.classifier);
    r.gcn_history = ml::train_classifier(*r.gcn, r.graph.normalized_adjacency,
                                         r.features, r.labels, r.split.train,
                                         r.split.val, config_.train);
    r.train_seconds = span.close();
    obs::logf(obs::LogLevel::kDebug,
              "pipeline: GCN training %.3fs (best epoch %d, val %.4f)",
              r.train_seconds, r.gcn_history.best_epoch,
              r.gcn_history.best_val_metric);
  }
  {
    obs::Span span("gcn_inference");
    const ml::Matrix out = r.gcn->forward(r.features, /*training=*/false);
    r.inference_seconds = span.close();
    r.gcn_eval = evaluate_model("GCN", ml::class1_probability(out),
                                ml::predict_labels(out), r.labels,
                                r.split.val);
  }

  // ---- baselines ------------------------------------------------------------------
  if (config_.train_baselines) {
    obs::Span span("baselines");
    for (auto& baseline : ml::make_all_baselines(config_.baseline_seed)) {
      baseline->fit(r.features, r.labels, r.split.train);
      auto proba = baseline->predict_proba(r.features);
      auto predicted = ml::labels_from_proba(proba);
      r.baseline_evals.push_back(
          evaluate_model(baseline->name(), std::move(proba),
                         std::move(predicted), r.labels, r.split.val));
    }
  }

  // ---- regressor (§3.4) ---------------------------------------------------------------
  if (config_.train_regressor) {
    obs::Span span("regressor");
    ml::GcnConfig rc = ml::GcnConfig::regressor();
    rc.hidden = config_.classifier.hidden;
    rc.dropout = config_.classifier.dropout;
    rc.dropout_after = config_.classifier.dropout_after;
    r.regressor = std::make_unique<ml::GcnModel>(r.features.cols(), rc);
    ml::train_regressor(*r.regressor, r.graph.normalized_adjacency,
                        r.features, r.scores, r.split.train, r.split.val,
                        config_.regressor_train);

    RegressionEval reg;
    const ml::Matrix pred = r.regressor->forward(r.features, false);
    reg.predicted_score.resize(nl.num_nodes());
    for (std::size_t i = 0; i < reg.predicted_score.size(); ++i)
      reg.predicted_score[i] =
          static_cast<double>(pred(static_cast<int>(i), 0));

    std::vector<double> val_true, val_pred;
    int agree = 0;
    for (const int i : r.split.val) {
      const auto iu = static_cast<std::size_t>(i);
      val_true.push_back(r.scores[iu]);
      val_pred.push_back(reg.predicted_score[iu]);
      const int score_class =
          reg.predicted_score[iu] >= config_.criticality_threshold ? 1 : 0;
      if (score_class == r.gcn_eval.predicted[iu]) ++agree;
    }
    double mse = 0.0;
    for (std::size_t i = 0; i < val_true.size(); ++i) {
      const double d = val_true[i] - val_pred[i];
      mse += d * d;
    }
    reg.val_mse = mse / static_cast<double>(val_true.size());
    reg.val_pearson = ml::pearson(val_true, val_pred);
    reg.val_spearman = ml::spearman(val_true, val_pred);
    reg.classifier_conformity =
        static_cast<double>(agree) / static_cast<double>(r.split.val.size());
    r.regression = std::move(reg);
  }

  return r;
}

PipelineResult FaultCriticalityAnalyzer::analyze_design(
    const std::string& name) const {
  return analyze(designs::build_design(name));
}

}  // namespace fcrit::core
