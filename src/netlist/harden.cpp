#include "src/netlist/harden.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "src/netlist/levelize.hpp"
#include "src/netlist/transform.hpp"

namespace fcrit::netlist {

namespace {

/// Majority of three: (a&b) | (a&c) | (b&c), built from plain library
/// gates (3x AN2 + OR3).
NodeId majority(Netlist& nl, NodeId a, NodeId b, NodeId c,
                std::vector<NodeId>& created) {
  const NodeId ab = nl.add_gate(CellKind::kAnd2, {a, b});
  const NodeId ac = nl.add_gate(CellKind::kAnd2, {a, c});
  const NodeId bc = nl.add_gate(CellKind::kAnd2, {b, c});
  const NodeId v = nl.add_gate(CellKind::kOr3, {ab, ac, bc});
  created.insert(created.end(), {ab, ac, bc, v});
  return v;
}

}  // namespace

HardenResult triplicate_nodes(const Netlist& nl,
                              const std::vector<NodeId>& targets) {
  for (const NodeId t : targets) {
    if (t >= nl.num_nodes())
      throw std::runtime_error("triplicate_nodes: target out of range");
    const CellKind k = nl.kind(t);
    if (k == CellKind::kInput || k == CellKind::kConst0 ||
        k == CellKind::kConst1)
      throw std::runtime_error(
          "triplicate_nodes: only gates and flip-flops can be hardened");
  }

  TransformResult copy =
      rebuild(nl, std::vector<bool>(nl.num_nodes(), true));
  copy.netlist.set_name(nl.name() + "_tmr");
  HardenResult out;
  out.netlist = std::move(copy.netlist);
  out.node_map = std::move(copy.node_map);

  const std::size_t gates_before = out.netlist.num_gates();

  // Process targets in topological order so that a hardened node feeding
  // another hardened node has its voter in place before the downstream
  // replicas copy their fanins.
  const auto lev = levelize(nl);
  std::vector<int> topo_pos(nl.num_nodes(), -1);
  int pos = 0;
  for (const NodeId id : lev.order) topo_pos[id] = pos++;
  // Sources (DFFs) come first, combinational order after.
  std::vector<NodeId> ordered(targets.begin(), targets.end());
  std::sort(ordered.begin(), ordered.end(), [&](NodeId a, NodeId b) {
    return topo_pos[a] != topo_pos[b] ? topo_pos[a] < topo_pos[b] : a < b;
  });
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());

  for (const NodeId target : ordered) {
    const NodeId copy = out.node_map[target];
    // Copied out: add_gate grows the node vector, so a reference into it
    // would dangle.
    const CellKind kind = out.netlist.kind(copy);
    const std::string name = out.netlist.node(copy).name;

    // Replicas share the copy's *current* fanins (already voter-redirected
    // where upstream targets were hardened).
    const auto copy_fanins = out.netlist.fanins(copy);
    const std::vector<NodeId> fanins(copy_fanins.begin(), copy_fanins.end());
    const NodeId r1 = out.netlist.add_gate(kind, fanins, name + "_tmr1");
    const NodeId r2 = out.netlist.add_gate(kind, fanins, name + "_tmr2");

    std::vector<NodeId> voter_internals;
    const NodeId voter =
        majority(out.netlist, copy, r1, r2, voter_internals);
    out.netlist.rename(voter, name + "_vote");
    out.voter_of[target] = voter;

    // Redirect every other consumer of the copy to the voter.
    const std::set<NodeId> exempt(voter_internals.begin(),
                                  voter_internals.end());
    for (NodeId id = 0; id < out.netlist.num_nodes(); ++id) {
      if (id == r1 || id == r2 || exempt.contains(id)) continue;
      const Node& node = out.netlist.node(id);
      for (std::size_t slot = 0; slot < node.fanin_count; ++slot) {
        if (node.fanin[slot] == copy)
          out.netlist.set_fanin(id, slot, voter);
      }
    }
  }

  // Output ports, redirected through voters where applicable.
  for (const auto& port : nl.outputs()) {
    const auto it = out.voter_of.find(port.driver);
    out.netlist.add_output(port.name, it != out.voter_of.end()
                                          ? it->second
                                          : out.node_map[port.driver]);
  }

  out.added_gates = out.netlist.num_gates() - gates_before;
  out.netlist.validate();
  return out;
}

}  // namespace fcrit::netlist
