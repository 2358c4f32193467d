#include "src/graphir/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"

namespace fcrit::graphir {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

Netlist diamond() {
  // a -> g1, g2; g1,g2 -> g3.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::kInv, {a});
  const NodeId g2 = nl.add_gate(CellKind::kBuf, {a});
  nl.add_gate(CellKind::kAnd2, {g1, g2});
  return nl;
}

TEST(Graph, EdgesAreUniqueUndirected) {
  const auto g = build_graph(diamond());
  EXPECT_EQ(g.num_nodes, 4);
  EXPECT_EQ(g.edges.size(), 4u);  // a-g1, a-g2, g1-g3, g2-g3
  std::set<std::pair<int, int>> unique(g.edges.begin(), g.edges.end());
  EXPECT_EQ(unique.size(), g.edges.size());
  for (const auto& [u, v] : g.edges) EXPECT_LT(u, v);
}

TEST(Graph, ParallelConnectionsCollapse) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_gate(CellKind::kAnd2, {a, a});  // both fanins from the same net
  const auto g = build_graph(nl);
  EXPECT_EQ(g.edges.size(), 1u);
}

TEST(Graph, NormalizedAdjacencyIsSymmetric) {
  const auto g = build_graph(diamond());
  EXPECT_TRUE(g.normalized_adjacency.is_symmetric());
}

// The symmetry flag is exact (same sparsity, same value bits both ways),
// and it holds for every Â the product builds, so training's spmm_t
// gathers over Â's own rows. The row-normalized ablation is asymmetric.
TEST(Graph, EveryBuiltAdjacencyIsExactlySymmetric) {
  std::vector<netlist::Netlist> netlists;
  for (const std::string& name : designs::all_design_names())
    netlists.push_back(designs::build_design(name).netlist);
  designs::RandomCircuitConfig rc;
  rc.num_gates = 1500;
  rc.num_flops = 64;
  rc.seed = 11;
  netlists.push_back(designs::build_random_circuit(rc).netlist);
  for (const netlist::Netlist& nl : netlists) {
    const auto g = build_graph(nl);
    EXPECT_TRUE(g.normalized_adjacency.is_symmetric()) << g.num_nodes;
    std::vector<float> weights(g.edges.size());
    for (std::size_t e = 0; e < weights.size(); ++e)
      weights[e] = 0.25f + 0.5f * static_cast<float>(e % 3);
    EXPECT_TRUE(masked_adjacency(g, weights).is_symmetric()) << g.num_nodes;
    EXPECT_FALSE(row_normalized_adjacency(g).is_symmetric()) << g.num_nodes;
  }
}

TEST(Graph, SelfLoopsPresentWithCorrectWeight) {
  const auto g = build_graph(diamond());
  // Node a has degree 2 (+1 self loop) -> self weight = 1/3.
  const auto& adj = g.normalized_adjacency;
  bool found = false;
  for (int k = adj.row_ptr()[0]; k < adj.row_ptr()[1]; ++k) {
    if (adj.col_index()[static_cast<std::size_t>(k)] == 0) {
      EXPECT_NEAR(adj.values()[static_cast<std::size_t>(k)], 1.0f / 3.0f,
                  1e-6f);
      EXPECT_EQ(g.entry_edge[static_cast<std::size_t>(k)], -1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Graph, OffDiagonalWeightsMatchKipfNormalization) {
  const auto g = build_graph(diamond());
  const auto& adj = g.normalized_adjacency;
  // Edge a(0)-g1(1): deg(a)=3, deg(g1)=3 (a, g3, self) -> 1/3.
  for (int k = adj.row_ptr()[0]; k < adj.row_ptr()[1]; ++k) {
    const int c = adj.col_index()[static_cast<std::size_t>(k)];
    if (c == 1) {
      EXPECT_NEAR(adj.values()[static_cast<std::size_t>(k)],
                  1.0f / std::sqrt(3.0f * 3.0f), 1e-6f);
    }
  }
}

TEST(Graph, EntryEdgeMapsBothDirections) {
  const auto g = build_graph(diamond());
  const auto& adj = g.normalized_adjacency;
  // For every stored entry (r, c), r != c, the mapped edge must be {r, c}.
  for (int r = 0; r < adj.rows(); ++r) {
    for (int k = adj.row_ptr()[static_cast<std::size_t>(r)];
         k < adj.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = adj.col_index()[static_cast<std::size_t>(k)];
      const int e = g.entry_edge[static_cast<std::size_t>(k)];
      if (r == c) {
        EXPECT_EQ(e, -1);
      } else {
        ASSERT_GE(e, 0);
        const auto [u, v] = g.edges[static_cast<std::size_t>(e)];
        EXPECT_TRUE((u == r && v == c) || (u == c && v == r));
      }
    }
  }
}

TEST(Graph, RowSumsWithinSymmetricNormalizationBound) {
  // For Â = D^-1/2 (A+I) D^-1/2 the r-th row sum is
  // (1/sqrt(d_r)) * sum_{c in N(r) U {r}} 1/sqrt(d_c) <= sqrt(d_r),
  // with degrees counting the self-loop.
  const auto design = designs::build_or1200_icfsm();
  const auto g = build_graph(design.netlist);
  std::vector<double> degree(static_cast<std::size_t>(g.num_nodes), 1.0);
  for (const auto& [u, v] : g.edges) {
    degree[static_cast<std::size_t>(u)] += 1.0;
    degree[static_cast<std::size_t>(v)] += 1.0;
  }
  const auto& adj = g.normalized_adjacency;
  for (int r = 0; r < adj.rows(); ++r) {
    double sum = 0.0;
    for (int k = adj.row_ptr()[static_cast<std::size_t>(r)];
         k < adj.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k)
      sum += adj.values()[static_cast<std::size_t>(k)];
    EXPECT_GT(sum, 0.0);
    EXPECT_LE(sum, std::sqrt(degree[static_cast<std::size_t>(r)]) + 1e-5);
  }
}

TEST(Graph, MaskedAdjacencyScalesOnlyEdges) {
  const auto g = build_graph(diamond());
  std::vector<float> weights(g.edges.size(), 0.0f);
  const auto masked = masked_adjacency(g, weights);
  // All off-diagonal entries zero, self-loops unchanged.
  for (int r = 0; r < masked.rows(); ++r) {
    for (int k = masked.row_ptr()[static_cast<std::size_t>(r)];
         k < masked.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = masked.col_index()[static_cast<std::size_t>(k)];
      if (r == c)
        EXPECT_GT(masked.values()[static_cast<std::size_t>(k)], 0.0f);
      else
        EXPECT_EQ(masked.values()[static_cast<std::size_t>(k)], 0.0f);
    }
  }
}

TEST(Graph, MaskedAdjacencyIdentityWeightsReproduce) {
  const auto g = build_graph(diamond());
  std::vector<float> ones(g.edges.size(), 1.0f);
  const auto masked = masked_adjacency(g, ones);
  for (std::size_t k = 0; k < masked.nnz(); ++k)
    EXPECT_EQ(masked.values()[k], g.normalized_adjacency.values()[k]);
}

TEST(Graph, MaskedAdjacencyWrongSizeThrows) {
  const auto g = build_graph(diamond());
  EXPECT_THROW(masked_adjacency(g, std::vector<float>(1)),
               std::runtime_error);
}

TEST(Graph, DffFeedbackLoopKeptAsEdge) {
  Netlist nl;
  const NodeId ff = nl.add_gate(CellKind::kDff, {netlist::kNoNode});
  const NodeId inv = nl.add_gate(CellKind::kInv, {ff});
  nl.set_fanin(ff, 0, inv);
  const auto g = build_graph(nl);
  EXPECT_EQ(g.edges.size(), 1u);  // ff <-> inv (one undirected edge)
}

}  // namespace
}  // namespace fcrit::graphir
