// Netlist transformations: sweep (dead-logic removal) and the node copy
// it shares with TMR hardening (src/netlist/harden).
//
// Both produce a *new* netlist plus an old-to-new node-id mapping (kNoNode
// for dropped nodes), since NodeIds are dense indices. Used by tooling
// (the CLI's `sweep` command), tests, and as building blocks for users who
// import external netlists with dangling logic.
#pragma once

#include <vector>

#include "src/netlist/netlist.hpp"

namespace fcrit::netlist {

struct TransformResult {
  Netlist netlist;
  /// old NodeId -> new NodeId, kNoNode where the node was dropped.
  std::vector<NodeId> node_map;

  std::size_t dropped() const {
    std::size_t n = 0;
    for (const NodeId m : node_map) n += (m == kNoNode);
    return n;
  }
};

/// Copy the `keep`-marked nodes of `src` into a fresh netlist of the same
/// name, in id order; fanins are patched once every kept node exists, so
/// flip-flop back edges resolve. Adds no output port. Throws
/// std::runtime_error when a kept node reads a dropped fanin.
TransformResult rebuild(const Netlist& src, const std::vector<bool>& keep);

/// Remove every node with no structural path to a primary output
/// (crossing flip-flops): the nodes outside netlist::fanin_cone of the
/// output drivers, which are exactly lint's dead-gate and dead-cone
/// warnings. Inputs are always kept (the port list is part of the
/// module's interface); constants are kept only if used. Throws
/// std::runtime_error on a netlist that fails validate().
TransformResult sweep(const Netlist& nl);

}  // namespace fcrit::netlist
