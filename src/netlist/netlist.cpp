#include "src/netlist/netlist.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace fcrit::netlist {

NodeId Netlist::add_input(std::string_view name) {
  Node n;
  n.kind = CellKind::kInput;
  n.name = std::string(name);
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  inputs_.push_back(id);
  invalidate_caches();
  return id;
}

NodeId Netlist::add_const(bool value) {
  NodeId& cached = value ? const1_ : const0_;
  if (cached != kNoNode) return cached;
  Node n;
  n.kind = value ? CellKind::kConst1 : CellKind::kConst0;
  n.name = value ? "TIE1_U" : "TIE0_U";
  const auto id = static_cast<NodeId>(nodes_.size());
  n.name += std::to_string(id);
  nodes_.push_back(std::move(n));
  cached = id;
  invalidate_caches();
  return id;
}

NodeId Netlist::add_gate(CellKind kind, std::span<const NodeId> fanins,
                         std::string_view instance_name) {
  const CellSpec& s = spec(kind);
  if (static_cast<int>(fanins.size()) != s.arity)
    throw std::runtime_error("add_gate: arity mismatch for cell " +
                             std::string(s.name));
  Node n;
  n.kind = kind;
  n.fanin_count = static_cast<std::uint8_t>(fanins.size());
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    if (fanins[i] != kNoNode && fanins[i] >= nodes_.size())
      throw std::runtime_error("add_gate: dangling fanin");
    n.fanin[i] = fanins[i];
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  n.name = instance_name.empty()
               ? std::string(s.name) + "_U" + std::to_string(id)
               : std::string(instance_name);
  nodes_.push_back(std::move(n));
  if (kind == CellKind::kDff) flops_.push_back(id);
  invalidate_caches();
  return id;
}

void Netlist::set_fanin(NodeId id, std::size_t slot, NodeId target) {
  if (id >= nodes_.size() || slot >= nodes_[id].fanin_count ||
      target >= nodes_.size())
    throw std::runtime_error("set_fanin: out of range");
  nodes_[id].fanin[slot] = target;
  invalidate_caches();
}

void Netlist::rename(NodeId id, std::string_view name) {
  if (id >= nodes_.size() || name.empty())
    throw std::runtime_error("rename: bad node or empty name");
  nodes_[id].name = std::string(name);
  names_valid_ = false;
}

void Netlist::add_output(std::string_view name, NodeId driver) {
  if (driver >= nodes_.size())
    throw std::runtime_error("add_output: dangling driver for port " +
                             std::string(name));
  outputs_.push_back({std::string(name), driver});
}

std::size_t Netlist::num_gates() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.kind != CellKind::kInput && node.kind != CellKind::kConst0 &&
        node.kind != CellKind::kConst1)
      ++n;
  }
  return n;
}

std::size_t Netlist::num_edges() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.fanin_count;
  return n;
}

std::optional<NodeId> Netlist::find(std::string_view name) const {
  if (!names_valid_) {
    name_to_id_.clear();
    for (NodeId id = 0; id < nodes_.size(); ++id)
      name_to_id_.emplace(nodes_[id].name, id);
    names_valid_ = true;
  }
  const auto it = name_to_id_.find(std::string(name));
  if (it == name_to_id_.end()) return std::nullopt;
  return it->second;
}

std::span<const NodeId> Netlist::fanouts(NodeId id) const {
  ensure_fanouts();
  const auto begin = fanout_offsets_[id];
  const auto end = fanout_offsets_[id + 1];
  return {fanout_targets_.data() + begin, end - begin};
}

void Netlist::validate() const {
  // Aggregate every violation into one report: a netlist with several
  // defects (a parser leaving multiple placeholders unresolved) surfaces
  // them all at once instead of fix-one-rerun loops.
  std::vector<std::string> violations;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.kind == CellKind::kCount) {
      violations.push_back("node " + std::to_string(id) +
                           " has invalid kind");
      continue;
    }
    if (n.fanin_count != spec(n.kind).arity)
      violations.push_back("node " + n.name + " has wrong fanin count");
    for (const NodeId f : n.fanins()) {
      if (f >= nodes_.size())
        violations.push_back("node " + n.name + " has dangling fanin");
    }
  }
  for (const OutputPort& port : outputs_) {
    if (port.driver >= nodes_.size())
      violations.push_back("output port " + port.name +
                           " has dangling driver");
  }
  if (violations.empty()) return;
  std::string msg =
      "validate: " + std::to_string(violations.size()) + " violation(s)";
  for (const std::string& v : violations) msg += "; " + v;
  throw std::runtime_error(msg);
}

void Netlist::invalidate_caches() {
  fanouts_valid_ = false;
  names_valid_ = false;
}

// Only fanins inside [0, num_nodes) are edges: a kNoNode placeholder that
// add_gate accepted, or any other unresolved fanin, is left out (lint
// reports it; validate() rejects it).
void Netlist::ensure_fanouts() const {
  if (fanouts_valid_) return;
  const std::size_t n = nodes_.size();
  fanout_offsets_.assign(n + 1, 0);
  for (const Node& node : nodes_)
    for (const NodeId f : node.fanins())
      if (f < n) ++fanout_offsets_[f + 1];
  for (std::size_t i = 1; i < fanout_offsets_.size(); ++i)
    fanout_offsets_[i] += fanout_offsets_[i - 1];
  fanout_targets_.resize(fanout_offsets_.back());
  std::vector<std::uint32_t> cursor(fanout_offsets_.begin(),
                                    fanout_offsets_.end() - 1);
  for (NodeId id = 0; id < n; ++id)
    for (const NodeId f : nodes_[id].fanins())
      if (f < n) fanout_targets_[cursor[f]++] = id;
  fanouts_valid_ = true;
}

namespace {

/// Breadth-first walk from `seeds` along `next(id)`, skipping ids outside
/// the netlist.
template <typename Next>
std::vector<NodeId> cone(const Netlist& nl, std::span<const NodeId> seeds,
                         Next next) {
  const std::size_t n = nl.num_nodes();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<NodeId> order;
  auto visit = [&](NodeId id) {
    if (id < n && !seen[id]) {
      seen[id] = 1;
      order.push_back(id);
    }
  };
  for (const NodeId s : seeds) visit(s);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const NodeId v : next(order[head])) visit(v);
  return order;
}

}  // namespace

std::vector<NodeId> fanout_cone(const Netlist& nl,
                                std::span<const NodeId> seeds) {
  return cone(nl, seeds, [&](NodeId id) { return nl.fanouts(id); });
}

std::vector<NodeId> fanin_cone(const Netlist& nl,
                               std::span<const NodeId> seeds) {
  return cone(nl, seeds, [&](NodeId id) { return nl.fanins(id); });
}

}  // namespace fcrit::netlist
