#include "src/explain/gnn_explainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "src/obs/trace.hpp"
#include "src/util/rng.hpp"

namespace fcrit::explain {

namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// A small Adam instance over a plain vector of logits.
class VectorAdam {
 public:
  VectorAdam(std::size_t n, double lr) : lr_(lr), m_(n, 0.0), v_(n, 0.0) {}

  void step(std::vector<double>& w, const std::vector<double>& g) {
    ++t_;
    const double bc1 = 1.0 - std::pow(0.9, t_);
    const double bc2 = 1.0 - std::pow(0.999, t_);
    for (std::size_t i = 0; i < w.size(); ++i) {
      m_[i] = 0.9 * m_[i] + 0.1 * g[i];
      v_[i] = 0.999 * v_[i] + 0.001 * g[i] * g[i];
      w[i] -= lr_ * (m_[i] / bc1) / (std::sqrt(v_[i] / bc2) + 1e-8);
    }
  }

 private:
  double lr_;
  int t_ = 0;
  std::vector<double> m_, v_;
};

}  // namespace

std::vector<int> Explanation::feature_ranking() const {
  std::vector<int> order(feature_importance.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return feature_importance[static_cast<std::size_t>(a)] >
           feature_importance[static_cast<std::size_t>(b)];
  });
  return order;
}

GnnExplainer::GnnExplainer(ml::GcnModel& model,
                           const graphir::CircuitGraph& graph,
                           const ml::Matrix& x, ExplainerConfig config)
    : model_(&model), graph_(&graph), x_(&x), config_(config) {
  incident_.resize(static_cast<std::size_t>(graph.num_nodes));
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    const auto [u, v] = graph.edges[e];
    incident_[static_cast<std::size_t>(u)].push_back(
        {v, static_cast<int>(e)});
    incident_[static_cast<std::size_t>(v)].push_back(
        {u, static_cast<int>(e)});
  }
}

Explanation GnnExplainer::explain(int node) {
  obs::Span span("explain");
  if (node < 0 || node >= graph_->num_nodes)
    throw std::runtime_error("GnnExplainer::explain: node out of range");
  const int num_features = x_->cols();

  // ---- model's own prediction on the full graph (the label to preserve) --
  model_->set_adjacency(&graph_->normalized_adjacency);
  const ml::Matrix full_out = model_->forward(*x_, /*training=*/false);
  int target_class = 0;
  for (int c = 1; c < full_out.cols(); ++c)
    if (full_out(node, c) > full_out(node, target_class)) target_class = c;

  // ---- k-hop subgraph extraction -----------------------------------------
  std::vector<int> sub_nodes{node};
  std::unordered_map<int, int> local_of{{node, 0}};
  std::vector<int> frontier{node};
  std::vector<int> sub_edges;  // global edge indices (unique)
  std::vector<char> edge_seen(graph_->edges.size(), 0);
  for (int hop = 0; hop < config_.num_hops; ++hop) {
    std::vector<int> next;
    for (const int u : frontier) {
      for (const auto& [v, e] : incident_[static_cast<std::size_t>(u)]) {
        if (!edge_seen[static_cast<std::size_t>(e)]) {
          edge_seen[static_cast<std::size_t>(e)] = 1;
          sub_edges.push_back(e);
        }
        if (!local_of.contains(v)) {
          local_of.emplace(v, static_cast<int>(sub_nodes.size()));
          sub_nodes.push_back(v);
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  const int n_local = static_cast<int>(sub_nodes.size());

  // ---- local adjacency with per-edge mask hooks ------------------------------
  // Entries keep the *full-graph* normalized weights restricted to the
  // subgraph (the reference GNNExplainer behaviour): the model then sees
  // exactly the message weights it was trained with, and masking an edge to
  // 1 reproduces the training-time propagation on the subgraph.
  const auto& full = graph_->normalized_adjacency;
  auto full_value = [&](int r, int c) -> float {
    for (int k = full.row_ptr()[static_cast<std::size_t>(r)];
         k < full.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      if (full.col_index()[static_cast<std::size_t>(k)] == c)
        return full.values()[static_cast<std::size_t>(k)];
    }
    return 0.0f;
  };
  std::vector<ml::Coo> entries;
  struct EntryTag {
    int row, col;
    int sub_edge;  // index into sub_edges, -1 for self-loops
  };
  std::vector<EntryTag> tags;
  for (std::size_t se = 0; se < sub_edges.size(); ++se) {
    const auto [gu, gv] = graph_->edges[static_cast<std::size_t>(sub_edges[se])];
    const int u = local_of.at(gu);
    const int v = local_of.at(gv);
    const float w = full_value(gu, gv);
    entries.push_back({u, v, w});
    tags.push_back({u, v, static_cast<int>(se)});
    entries.push_back({v, u, w});
    tags.push_back({v, u, static_cast<int>(se)});
  }
  for (int i = 0; i < n_local; ++i) {
    entries.push_back({i, i,
                       full_value(sub_nodes[static_cast<std::size_t>(i)],
                                  sub_nodes[static_cast<std::size_t>(i)])});
    tags.push_back({i, i, -1});
  }
  std::sort(tags.begin(), tags.end(), [](const EntryTag& a, const EntryTag& b) {
    return std::tie(a.row, a.col) < std::tie(b.row, b.col);
  });
  std::sort(entries.begin(), entries.end(),
            [](const ml::Coo& a, const ml::Coo& b) {
              return std::tie(a.row, a.col) < std::tie(b.row, b.col);
            });
  const ml::SparseMatrix base_adj = ml::SparseMatrix::from_coo(
      n_local, n_local, entries);
  if (base_adj.nnz() != tags.size())
    throw std::runtime_error("GnnExplainer: entry tagging lost entries");
  // entry -> sub_edge map in CSR order.
  std::vector<int> entry_sub_edge(tags.size());
  for (std::size_t k = 0; k < tags.size(); ++k)
    entry_sub_edge[k] = tags[k].sub_edge;

  // ---- local feature matrix -------------------------------------------------
  ml::Matrix x_local(n_local, num_features);
  for (int i = 0; i < n_local; ++i) {
    const auto src = x_->row(sub_nodes[static_cast<std::size_t>(i)]);
    auto dst = x_local.row(i);
    for (int j = 0; j < num_features; ++j) dst[j] = src[j];
  }

  // ---- mask optimization -------------------------------------------------------
  util::Rng rng(config_.seed ^ static_cast<std::uint64_t>(node) * 0x9e37);
  std::vector<double> edge_logit(sub_edges.size());
  for (double& v : edge_logit) v = 1.0 + 0.1 * rng.next_gaussian();
  std::vector<double> feat_logit(static_cast<std::size_t>(num_features));
  for (double& v : feat_logit) v = 1.0 + 0.1 * rng.next_gaussian();

  VectorAdam edge_opt(edge_logit.size(), config_.lr);
  VectorAdam feat_opt(feat_logit.size(), config_.lr);
  std::vector<float> edge_grad_buffer;
  std::vector<float> masked_values(base_adj.values().size());

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Masked adjacency and features.
    const auto& base_values = base_adj.values();
    for (std::size_t k = 0; k < base_values.size(); ++k) {
      const int se = entry_sub_edge[k];
      masked_values[k] =
          se < 0 ? base_values[k]
                 : base_values[k] * static_cast<float>(sigmoid(
                       edge_logit[static_cast<std::size_t>(se)]));
    }
    const ml::SparseMatrix masked_adj = base_adj.with_values(masked_values);
    ml::Matrix x_masked = x_local;
    for (int i = 0; i < n_local; ++i) {
      auto row = x_masked.row(i);
      for (int j = 0; j < num_features; ++j)
        row[j] *= static_cast<float>(
            sigmoid(feat_logit[static_cast<std::size_t>(j)]));
    }

    // Forward/backward through the trained model (weights frozen: we simply
    // never apply an optimizer step to them; their grads are discarded).
    model_->set_adjacency(&masked_adj);
    edge_grad_buffer.assign(base_values.size(), 0.0f);
    model_->set_edge_grad_buffer(&edge_grad_buffer);
    // The grad-capable evaluation pass: dropout off, caches kept, so
    // backward() turns `grad` into dL/dX.
    const ml::Matrix& logp = model_->forward(x_masked, ml::Pass::kEval);
    ml::Matrix grad(n_local, logp.cols());
    grad(0, target_class) = -1.0f;  // node is local index 0
    model_->zero_grad();
    model_->backward(grad);
    model_->set_edge_grad_buffer(nullptr);
    const ml::Matrix& dx = grad;

    // Edge-mask gradients: chain through masked_value = base * sigmoid(m),
    // then add size and entropy regularizer derivatives.
    std::vector<double> ge(edge_logit.size(), 0.0);
    for (std::size_t k = 0; k < base_values.size(); ++k) {
      const int se = entry_sub_edge[k];
      if (se < 0) continue;
      ge[static_cast<std::size_t>(se)] +=
          static_cast<double>(edge_grad_buffer[k]) * base_values[k];
    }
    for (std::size_t e = 0; e < edge_logit.size(); ++e) {
      const double s = sigmoid(edge_logit[e]);
      const double ds = s * (1.0 - s);
      double g = ge[e] * ds;
      g += config_.edge_size_penalty * ds;
      // d/dm of entropy H(sigmoid(m)) = -m * ds (logit form).
      g += config_.edge_entropy_penalty * (-edge_logit[e] * ds);
      ge[e] = g;
    }

    // Feature-mask gradients.
    std::vector<double> gf(feat_logit.size(), 0.0);
    for (int i = 0; i < n_local; ++i) {
      const auto xrow = x_local.row(i);
      const auto drow = dx.row(i);
      for (int j = 0; j < num_features; ++j)
        gf[static_cast<std::size_t>(j)] +=
            static_cast<double>(drow[j]) * xrow[j];
    }
    for (std::size_t j = 0; j < feat_logit.size(); ++j) {
      const double s = sigmoid(feat_logit[j]);
      const double ds = s * (1.0 - s);
      double g = gf[j] * ds;
      g += config_.feature_size_penalty * ds;
      g += config_.feature_entropy_penalty * (-feat_logit[j] * ds);
      gf[j] = g;
    }

    edge_opt.step(edge_logit, ge);
    feat_opt.step(feat_logit, gf);
  }

  // Restore the full-graph adjacency on the shared model, and drop the
  // workspace, whose caches point at this call's masked features.
  model_->set_adjacency(&graph_->normalized_adjacency);
  model_->release_workspace();

  // ---- package the explanation ---------------------------------------------
  Explanation ex;
  ex.node = node;
  ex.predicted_class = target_class;
  ex.subgraph_nodes = sub_nodes;
  ex.feature_mask.resize(feat_logit.size());
  for (std::size_t j = 0; j < feat_logit.size(); ++j)
    ex.feature_mask[j] = sigmoid(feat_logit[j]);
  // Importance normalized to mean 1 (Table 2 / Fig. 5a scale).
  const double mean_mask =
      std::accumulate(ex.feature_mask.begin(), ex.feature_mask.end(), 0.0) /
      static_cast<double>(ex.feature_mask.size());
  ex.feature_importance.resize(ex.feature_mask.size());
  for (std::size_t j = 0; j < ex.feature_mask.size(); ++j)
    ex.feature_importance[j] =
        mean_mask > 0 ? ex.feature_mask[j] / mean_mask : 0.0;

  ex.edge_importance.reserve(sub_edges.size());
  for (std::size_t se = 0; se < sub_edges.size(); ++se)
    ex.edge_importance.emplace_back(sub_edges[se], sigmoid(edge_logit[se]));
  std::sort(ex.edge_importance.begin(), ex.edge_importance.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return ex;
}

}  // namespace fcrit::explain
