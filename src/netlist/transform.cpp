#include "src/netlist/transform.hpp"

#include <stdexcept>

namespace fcrit::netlist {

TransformResult rebuild(const Netlist& src, const std::vector<bool>& keep) {
  TransformResult out;
  out.netlist.set_name(src.name());
  out.node_map.assign(src.num_nodes(), kNoNode);

  // First pass: create nodes with placeholder fanins.
  for (NodeId id = 0; id < src.num_nodes(); ++id) {
    if (!keep[id]) continue;
    const Node& node = src.node(id);
    switch (node.kind) {
      case CellKind::kInput:
        out.node_map[id] = out.netlist.add_input(node.name);
        break;
      case CellKind::kConst0:
        out.node_map[id] = out.netlist.add_const(false);
        break;
      case CellKind::kConst1:
        out.node_map[id] = out.netlist.add_const(true);
        break;
      default: {
        std::vector<NodeId> fanins(node.fanin_count, kNoNode);
        out.node_map[id] =
            out.netlist.add_gate(node.kind, fanins, node.name);
        break;
      }
    }
  }
  // Second pass: patch fanins.
  for (NodeId id = 0; id < src.num_nodes(); ++id) {
    if (out.node_map[id] == kNoNode) continue;
    const Node& node = src.node(id);
    if (node.kind == CellKind::kInput || node.kind == CellKind::kConst0 ||
        node.kind == CellKind::kConst1)
      continue;
    for (std::size_t slot = 0; slot < node.fanin_count; ++slot) {
      const NodeId f = node.fanin[slot];
      if (f >= src.num_nodes() || out.node_map[f] == kNoNode)
        throw std::runtime_error(
            "transform: kept node references dropped fanin");
      out.netlist.set_fanin(out.node_map[id], slot, out.node_map[f]);
    }
  }
  return out;
}

TransformResult sweep(const Netlist& nl) {
  nl.validate();
  std::vector<NodeId> drivers;
  for (const auto& port : nl.outputs()) drivers.push_back(port.driver);
  std::vector<bool> keep(nl.num_nodes(), false);
  for (const NodeId id : fanin_cone(nl, drivers)) keep[id] = true;
  // The interface keeps all primary inputs even when unused.
  for (const NodeId in : nl.inputs()) keep[in] = true;

  TransformResult out = rebuild(nl, keep);
  for (const auto& port : nl.outputs())
    out.netlist.add_output(port.name, out.node_map[port.driver]);
  out.netlist.validate();
  return out;
}

}  // namespace fcrit::netlist
