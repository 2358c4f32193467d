#include "src/graphir/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fcrit::graphir {

CircuitGraph build_graph(const netlist::Netlist& nl) {
  CircuitGraph g;
  const std::size_t n = nl.num_nodes();
  g.num_nodes = static_cast<int>(n);

  // Unique undirected edges, first seen walking nodes by id and each
  // node's fanins by slot. Parallel connections (a gate consuming the same
  // net twice) collapse to one edge; self-feedback (only possible via DFF
  // q->d loops) is dropped because Â adds a self-loop anyway. Fanin f of
  // node id repeats an edge in exactly two cases, so no lookup table is
  // needed: f also sits in an earlier slot of id, or f < id and id is a
  // fanin of f (a two-node gate <-> DFF loop).
  std::vector<int> degree(n, 1);  // deg(v) = 1 + #incident edges
  for (netlist::NodeId id = 0; id < n; ++id) {
    const auto fanins = nl.fanins(id);
    for (std::size_t slot = 0; slot < fanins.size(); ++slot) {
      const netlist::NodeId f = fanins[slot];
      const auto earlier = fanins.first(slot);
      if (f == id || std::find(earlier.begin(), earlier.end(), f) !=
                         earlier.end())
        continue;
      if (f < id) {
        const auto back = nl.fanins(f);
        if (std::find(back.begin(), back.end(), id) != back.end()) continue;
      }
      g.edges.emplace_back(static_cast<int>(std::min(f, id)),
                           static_cast<int>(std::max(f, id)));
      ++degree[f];
      ++degree[id];
    }
  }
  std::vector<double> dinv_sqrt(n);
  for (std::size_t i = 0; i < n; ++i)
    dinv_sqrt[i] = 1.0 / std::sqrt(static_cast<double>(degree[i]));

  // Each node's neighbours with the connecting edge, by a counting pass.
  std::vector<int> adj_ptr(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    adj_ptr[i + 1] = adj_ptr[i] + degree[i] - 1;
  std::vector<std::pair<int, int>> adj(static_cast<std::size_t>(adj_ptr[n]));
  {
    std::vector<int> fill(adj_ptr.begin(), adj_ptr.end() - 1);
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const auto [u, v] = g.edges[e];
      adj[static_cast<std::size_t>(fill[u]++)] = {v, static_cast<int>(e)};
      adj[static_cast<std::size_t>(fill[v]++)] = {u, static_cast<int>(e)};
    }
  }

  // Â in CSR, entries sorted by (row, col). Walking columns c in ascending
  // order and appending (r, c) to the row of every neighbour r of c (and
  // (c, c) to row c) fills each row in column order: Â is symmetric.
  std::vector<int> row_ptr(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] = row_ptr[i] + degree[i];
  const auto nnz = static_cast<std::size_t>(row_ptr[n]);
  std::vector<int> col(nnz);
  std::vector<float> val(nnz);
  g.entry_edge.resize(nnz);
  std::vector<int> next(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t c = 0; c < n; ++c) {
    auto k = static_cast<std::size_t>(next[c]++);
    col[k] = static_cast<int>(c);
    val[k] = static_cast<float>(dinv_sqrt[c] * dinv_sqrt[c]);
    g.entry_edge[k] = -1;
    for (int a = adj_ptr[c]; a < adj_ptr[c + 1]; ++a) {
      const auto [r, e] = adj[static_cast<std::size_t>(a)];
      const auto [u, v] = g.edges[static_cast<std::size_t>(e)];
      k = static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++);
      col[k] = static_cast<int>(c);
      val[k] = static_cast<float>(dinv_sqrt[static_cast<std::size_t>(u)] *
                                  dinv_sqrt[static_cast<std::size_t>(v)]);
      g.entry_edge[k] = e;
    }
  }
  g.normalized_adjacency = ml::SparseMatrix::from_csr(
      g.num_nodes, g.num_nodes, std::move(row_ptr), std::move(col),
      std::move(val));
  return g;
}

ml::SparseMatrix row_normalized_adjacency(const CircuitGraph& graph) {
  std::vector<double> degree(static_cast<std::size_t>(graph.num_nodes), 1.0);
  for (const auto& [u, v] : graph.edges) {
    degree[static_cast<std::size_t>(u)] += 1.0;
    degree[static_cast<std::size_t>(v)] += 1.0;
  }
  const auto& adj = graph.normalized_adjacency;
  std::vector<float> values(adj.nnz());
  for (int r = 0; r < adj.rows(); ++r) {
    for (int k = adj.row_ptr()[static_cast<std::size_t>(r)];
         k < adj.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      values[static_cast<std::size_t>(k)] =
          static_cast<float>(1.0 / degree[static_cast<std::size_t>(r)]);
    }
  }
  return adj.with_values(std::move(values));
}

ml::SparseMatrix masked_adjacency(const CircuitGraph& graph,
                                  const std::vector<float>& edge_weight) {
  if (edge_weight.size() != graph.edges.size())
    throw std::runtime_error("masked_adjacency: weight count mismatch");
  std::vector<float> values = graph.normalized_adjacency.values();
  for (std::size_t k = 0; k < values.size(); ++k) {
    const int e = graph.entry_edge[k];
    if (e >= 0) values[k] *= edge_weight[static_cast<std::size_t>(e)];
  }
  return graph.normalized_adjacency.with_values(std::move(values));
}

}  // namespace fcrit::graphir
