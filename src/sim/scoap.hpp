// SCOAP testability analysis (Goldstein 1979): combinational
// controllability CC0/CC1 (difficulty of setting a node to 0/1) and
// observability CO (difficulty of propagating a node to an output).
//
// This is the classical structural proxy for fault detectability: a fault
// is easy to detect when its site is easy to control to the opposite value
// and easy to observe. The framework uses SCOAP as an *extended* node
// feature set for the GCN feature-ablation experiments, and tests use it as
// an independent cross-check of the FI-derived criticality (hard-to-observe
// nodes should rarely be Dangerous).
//
// Sequential handling: DFFs add one unit of (sequential) cost and iterate
// to a fixpoint, a simplified SCOAP-S treatment adequate for ranking.
#pragma once

#include <vector>

#include "src/netlist/netlist.hpp"

namespace fcrit::sim {

struct ScoapResult {
  std::vector<double> cc0;  // controllability to 0, >= 1
  std::vector<double> cc1;  // controllability to 1, >= 1
  std::vector<double> co;   // observability, >= 0 (0 at primary outputs)
};

/// Values saturate here (unreachable/unobservable logic would otherwise
/// diverge through sequential loops).
inline constexpr double kScoapCap = 1e6;

ScoapResult compute_scoap(const netlist::Netlist& nl);

}  // namespace fcrit::sim
