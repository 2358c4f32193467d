// Gate-level netlist data model.
//
// Every cell in the library drives exactly one output net, so a net is
// identified with its driving node and the netlist is a directed graph over
// nodes (primary inputs, constants, gates, flip-flops). This is the
// representation the whole framework operates on: the simulator levelizes
// it, the fault injector enumerates its nodes, and graphir converts it into
// the GCN input graph.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/netlist/cell_library.hpp"

namespace fcrit::netlist {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// A single node: a primary input, constant, combinational gate or DFF.
struct Node {
  CellKind kind = CellKind::kCount;
  std::array<NodeId, kMaxFanins> fanin{kNoNode, kNoNode, kNoNode, kNoNode};
  std::uint8_t fanin_count = 0;
  std::string name;  // instance name ("ND2_U42") or port name for inputs

  std::span<const NodeId> fanins() const {
    return {fanin.data(), fanin_count};
  }
};

/// A named primary output, driven by `driver`.
struct OutputPort {
  std::string name;
  NodeId driver = kNoNode;
};

class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- construction -------------------------------------------------------

  /// Add a primary input with the given port name.
  NodeId add_input(std::string_view name);

  /// Add a constant-0 / constant-1 node (deduplicated).
  NodeId add_const(bool value);

  /// Add a gate (or DFF). `fanins` must match the kind's arity. An empty
  /// instance name is auto-generated as "<LIB>_U<id>".
  NodeId add_gate(CellKind kind, std::span<const NodeId> fanins,
                  std::string_view instance_name = {});

  NodeId add_gate(CellKind kind, std::initializer_list<NodeId> fanins,
                  std::string_view instance_name = {}) {
    return add_gate(kind, std::span<const NodeId>(fanins.begin(), fanins.size()),
                    instance_name);
  }

  /// Register a primary output port driven by `driver`.
  void add_output(std::string_view name, NodeId driver);

  /// Replace fanin slot `slot` of node `id`. Used by the Verilog parser to
  /// resolve forward references: add_gate accepts kNoNode placeholders and
  /// validate() rejects any left unresolved.
  void set_fanin(NodeId id, std::size_t slot, NodeId target);

  /// Rename a node (parsers use the source file's net names).
  void rename(NodeId id, std::string_view name);

  // ---- accessors -----------------------------------------------------------

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  CellKind kind(NodeId id) const { return nodes_[id].kind; }
  std::span<const NodeId> fanins(NodeId id) const {
    return nodes_[id].fanins();
  }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& flops() const { return flops_; }
  const std::vector<OutputPort>& outputs() const { return outputs_; }

  std::size_t num_gates() const;  // excludes inputs and constants
  std::size_t num_edges() const;  // total fanin connections

  /// Find a node by its instance/port name. O(1) after first call.
  std::optional<NodeId> find(std::string_view name) const;

  // ---- fanout --------------------------------------------------------------

  /// Nodes that consume `id` as a fanin. Computed on demand, cached, and
  /// invalidated by construction calls.
  std::span<const NodeId> fanouts(NodeId id) const;

  /// Total fanin+fanout connection count of a node (§3.1.1 feature).
  std::size_t num_connections(NodeId id) const {
    return nodes_[id].fanin_count + fanouts(id).size();
  }

  // ---- validation ----------------------------------------------------------

  /// Throws std::runtime_error if any fanin is dangling, any arity is wrong,
  /// or an output port references a missing node. Every violation is
  /// aggregated into the one exception message (no first-error-only
  /// throwing); src/lint runs the deeper structural rules.
  void validate() const;

 private:
  void invalidate_caches();
  void ensure_fanouts() const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> flops_;
  std::vector<OutputPort> outputs_;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;

  // Fanout CSR cache.
  mutable bool fanouts_valid_ = false;
  mutable std::vector<std::uint32_t> fanout_offsets_;
  mutable std::vector<NodeId> fanout_targets_;

  // Name lookup cache.
  mutable bool names_valid_ = false;
  mutable std::unordered_map<std::string, NodeId> name_to_id_;
};

/// The nodes reachable from `seeds` through fanouts (fanout_cone) or
/// through fanins (fanin_cone), crossing flip-flops: breadth-first order,
/// seeds first, each node once. Seeds and fanins outside [0, num_nodes())
/// are skipped, so both walk lenient netlists that still hold unresolved
/// fanins. The one cone walk behind lint, sweep and the FI campaign.
std::vector<NodeId> fanout_cone(const Netlist& nl,
                                std::span<const NodeId> seeds);
std::vector<NodeId> fanin_cone(const Netlist& nl,
                               std::span<const NodeId> seeds);

}  // namespace fcrit::netlist
