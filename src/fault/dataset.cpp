#include "src/fault/dataset.hpp"

#include <algorithm>
#include <bit>

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

CriticalityDataset generate_dataset(const CampaignResult& campaign,
                                    double threshold) {
  // Dangerous lanes per node. A node's SA0/SA1 verdicts merge by lane-union
  // (lines 5-9 of Algorithm 1, with the two polarities of a node treated as
  // the node's fault manifestations); nodes come out in ascending id.
  std::size_t span = 0;
  for (const FaultResult& fr : campaign.faults)
    span = std::max<std::size_t>(span, std::size_t{fr.fault.node} + 1);
  std::vector<std::uint64_t> lanes(span, 0);
  std::vector<char> is_site(span, 0);
  for (const FaultResult& fr : campaign.faults) {
    lanes[fr.fault.node] |= fr.dangerous_lanes;
    is_site[fr.fault.node] = 1;
  }

  CriticalityDataset ds;
  ds.threshold = threshold;
  ds.num_workloads = sim::kLanes;
  for (NodeId node = 0; node < span; ++node) {
    if (!is_site[node]) continue;
    ds.nodes.push_back(node);
    const double score = static_cast<double>(std::popcount(lanes[node])) /
                         static_cast<double>(sim::kLanes);
    ds.score.push_back(score);
    ds.label.push_back(score >= threshold ? 1 : 0);
  }
  return ds;
}

}  // namespace fcrit::fault
