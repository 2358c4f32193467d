#include "src/fault/dataset.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

#include "src/sim/packed_sim.hpp"
#include "src/util/text.hpp"

namespace fcrit::fault {

std::size_t CriticalityDataset::num_critical() const {
  std::size_t n = 0;
  for (const int l : label) n += static_cast<std::size_t>(l);
  return n;
}

double CriticalityDataset::critical_fraction() const {
  return nodes.empty() ? 0.0
                       : static_cast<double>(num_critical()) /
                             static_cast<double>(nodes.size());
}

int CriticalityDataset::index_of(NodeId node) const {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  if (it == nodes.end() || *it != node) return -1;
  return static_cast<int>(it - nodes.begin());
}

std::string CriticalityDataset::summary() const {
  std::string out = "dataset: " + std::to_string(nodes.size()) + " nodes, " +
                    std::to_string(num_critical()) + " critical (" +
                    util::format_double(100.0 * critical_fraction(), 1) +
                    "%), th=" + util::format_double(threshold, 2) +
                    ", N=" + std::to_string(num_workloads) + " workloads";
  return out;
}

CriticalityDataset generate_dataset(
    const std::vector<const CampaignResult*>& campaigns, double threshold) {
  if (campaigns.empty())
    throw std::runtime_error("generate_dataset: no campaigns");

  // Dangerous-workload count per node. A node's SA0/SA1 verdicts within one
  // campaign merge by lane-union (lines 5-9 of Algorithm 1, with the two
  // polarities of a node treated as the node's fault manifestations).
  std::map<NodeId, int> dangerous_count;
  std::map<NodeId, std::uint64_t> batch_union;
  int total_workloads = 0;

  for (const CampaignResult* campaign : campaigns) {
    batch_union.clear();
    for (const FaultResult& fr : campaign->faults)
      batch_union[fr.fault.node] |= fr.dangerous_lanes;
    for (const auto& [node, lanes] : batch_union)
      dangerous_count[node] += std::popcount(lanes);
    total_workloads += sim::kLanes;
  }

  CriticalityDataset ds;
  ds.threshold = threshold;
  ds.num_workloads = total_workloads;
  ds.nodes.reserve(dangerous_count.size());
  for (const auto& [node, count] : dangerous_count) {
    ds.nodes.push_back(node);
    const double score =
        static_cast<double>(count) / static_cast<double>(total_workloads);
    ds.score.push_back(score);
    ds.label.push_back(score >= threshold ? 1 : 0);
  }
  return ds;
}

CriticalityDataset generate_dataset(const CampaignResult& campaign,
                                    double threshold) {
  return generate_dataset(std::vector<const CampaignResult*>{&campaign},
                          threshold);
}

}  // namespace fcrit::fault
