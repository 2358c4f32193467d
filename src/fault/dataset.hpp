// Algorithm 1 — fault-criticality dataset generation.
//
// Per-workload FI verdicts ("Dangerous") are aggregated into a node
// criticality score NodeCritic[node] = dangerous_workloads / N, and nodes
// with score >= th are labeled Critical (1). A node's two stuck-at faults
// are merged by lane-union: the node is Dangerous under a workload if
// either polarity corrupts an output there. The result carries both the
// continuous scores (regression targets, §3.4) and the binary labels
// (classification targets, §3.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_sim.hpp"

namespace fcrit::fault {

struct CriticalityDataset {
  /// Fault-site nodes, ascending NodeId; all vectors below are aligned.
  std::vector<NodeId> nodes;
  std::vector<double> score;  // NodeCritic in [0, 1]
  std::vector<int> label;     // 1 = Critical, 0 = Non-critical
  double threshold = 0.5;
  int num_workloads = 0;

  std::size_t size() const { return nodes.size(); }
  std::size_t num_critical() const;
  double critical_fraction() const;

  /// Index of `node` within the dataset, or -1.
  int index_of(NodeId node) const;

  std::string summary() const;
};

/// Aggregate one or more campaign results (e.g. several 64-lane batches
/// with different seeds) into scores and labels. All results must stem from
/// the same netlist/fault universe.
CriticalityDataset generate_dataset(
    const std::vector<const CampaignResult*>& campaigns, double threshold);

CriticalityDataset generate_dataset(const CampaignResult& campaign,
                                    double threshold);

}  // namespace fcrit::fault
