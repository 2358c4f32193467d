#include "src/check/front_end_ref.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/serve/bundle.hpp"

namespace fcrit::check {

std::uint64_t reference_content_hash(const netlist::Netlist& nl) {
  return serve::fnv1a64(
      netlist::to_verilog(netlist::parse_verilog(netlist::to_verilog(nl))));
}

graphir::CircuitGraph reference_build_graph(const netlist::Netlist& nl) {
  graphir::CircuitGraph g;
  g.num_nodes = static_cast<int>(nl.num_nodes());

  std::map<std::pair<int, int>, int> edge_index;
  for (netlist::NodeId id = 0; id < nl.num_nodes(); ++id) {
    for (const netlist::NodeId f : nl.fanins(id)) {
      if (f == id) continue;
      const int a = static_cast<int>(f);
      const int b = static_cast<int>(id);
      const std::pair<int, int> e{std::min(a, b), std::max(a, b)};
      if (!edge_index.contains(e)) {
        edge_index.emplace(e, static_cast<int>(g.edges.size()));
        g.edges.push_back(e);
      }
    }
  }

  std::vector<double> degree(static_cast<std::size_t>(g.num_nodes), 1.0);
  for (const auto& [u, v] : g.edges) {
    degree[static_cast<std::size_t>(u)] += 1.0;
    degree[static_cast<std::size_t>(v)] += 1.0;
  }
  std::vector<double> dinv_sqrt(degree.size());
  for (std::size_t i = 0; i < degree.size(); ++i)
    dinv_sqrt[i] = 1.0 / std::sqrt(degree[i]);

  struct Tagged {
    ml::Coo coo;
    int edge;
  };
  std::vector<Tagged> tagged;
  tagged.reserve(2 * g.edges.size() + static_cast<std::size_t>(g.num_nodes));
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto [u, v] = g.edges[e];
    const float w = static_cast<float>(dinv_sqrt[static_cast<std::size_t>(u)] *
                                       dinv_sqrt[static_cast<std::size_t>(v)]);
    tagged.push_back({{u, v, w}, static_cast<int>(e)});
    tagged.push_back({{v, u, w}, static_cast<int>(e)});
  }
  for (int i = 0; i < g.num_nodes; ++i) {
    const float w = static_cast<float>(dinv_sqrt[static_cast<std::size_t>(i)] *
                                       dinv_sqrt[static_cast<std::size_t>(i)]);
    tagged.push_back({{i, i, w}, -1});
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.coo.row, a.coo.col) < std::tie(b.coo.row, b.coo.col);
  });
  std::vector<ml::Coo> entries;
  entries.reserve(tagged.size());
  g.entry_edge.reserve(tagged.size());
  for (const Tagged& t : tagged) {
    entries.push_back(t.coo);
    g.entry_edge.push_back(t.edge);
  }
  g.normalized_adjacency =
      ml::SparseMatrix::from_coo(g.num_nodes, g.num_nodes, std::move(entries));
  if (g.normalized_adjacency.nnz() != g.entry_edge.size())
    throw std::runtime_error(
        "reference_build_graph: duplicate (row,col) entries broke edge "
        "tagging");
  return g;
}

namespace {

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

std::string diff_graphs(const graphir::CircuitGraph& got,
                        const graphir::CircuitGraph& ref) {
  const ml::SparseMatrix& a = got.normalized_adjacency;
  const ml::SparseMatrix& b = ref.normalized_adjacency;
  if (got.num_nodes != ref.num_nodes || a.rows() != b.rows() ||
      a.cols() != b.cols())
    return "graph sizes differ";
  if (got.edges != ref.edges) return "edge lists differ";
  if (got.entry_edge != ref.entry_edge) return "entry_edge differs";
  if (a.row_ptr() != b.row_ptr()) return "CSR row offsets differ";
  if (a.col_index() != b.col_index()) return "CSR columns differ";
  if (!same_bytes(a.values(), b.values())) return "Â value bits differ";
  return {};
}

}  // namespace fcrit::check
