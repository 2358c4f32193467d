#include "src/fault/autopsy.hpp"

#include <bit>
#include <queue>
#include <stdexcept>

#include "src/sim/packed_sim.hpp"
#include "src/util/text.hpp"

namespace fcrit::fault {

using netlist::CellKind;
using netlist::NodeId;

std::string Autopsy::to_string() const {
  std::string out = "autopsy: fault " +
                    (propagation_path.empty() ? std::string("<unnamed>")
                                              : propagation_path.front()) +
                    (fault.stuck_value ? "/SA1" : "/SA0") + "\n";
  if (!detected) {
    out += "  never corrupted a primary output in the campaign window\n";
    return out;
  }
  out += "  first corruption: cycle " + std::to_string(first_cycle) +
         ", workload " + std::to_string(first_lane) + "\n";
  out += "  outputs corrupted there: " +
         util::join(corrupted_outputs, ", ") + "\n";
  out += "  shortest propagation path (" +
         std::to_string(path_flop_crossings) + " flop crossings): " +
         util::join(propagation_path, " -> ") + "\n";
  out += "  per-output corruption (cycles):\n";
  for (const auto& [name, count] : output_corruption) {
    if (count == 0) continue;
    out += "    " + name + ": " + std::to_string(count) + "\n";
  }
  return out;
}

Autopsy run_autopsy(const FaultCampaign& campaign,
                    const netlist::Netlist& nl, const Fault& fault) {
  if (!campaign.golden_ready())
    throw std::runtime_error("run_autopsy: golden trace not recorded");
  if (!is_fault_site(nl, fault.node))
    throw std::runtime_error("run_autopsy: node is not a fault site");

  Autopsy a;
  a.fault = fault;

  // ---- re-simulation: the packed simulator with the fault injected, fed
  // the campaign's recorded stimulus ---------------------------------------
  sim::PackedSimulator simulator(nl);
  simulator.inject(fault.node, fault.stuck_value);
  std::vector<std::uint64_t> words(nl.inputs().size());
  std::vector<int> po_corruption(nl.outputs().size(), 0);

  for (int t = 0; t < campaign.config().cycles; ++t) {
    for (std::size_t i = 0; i < words.size(); ++i)
      words[i] = campaign.golden_value(t, nl.inputs()[i]);
    simulator.eval_comb(words);

    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const NodeId driver = nl.outputs()[o].driver;
      const std::uint64_t x =
          simulator.value(driver) ^ campaign.golden_value(t, driver);
      if (!x) continue;
      ++po_corruption[o];
      if (a.first_cycle < 0 || t == a.first_cycle) {
        if (a.first_cycle < 0) {
          a.first_cycle = t;
          a.first_lane = std::countr_zero(x);
        }
        a.corrupted_outputs.push_back(nl.outputs()[o].name);
      }
    }
    simulator.clock();
  }
  a.detected = a.first_cycle >= 0;
  for (std::size_t o = 0; o < nl.outputs().size(); ++o)
    a.output_corruption.emplace_back(nl.outputs()[o].name, po_corruption[o]);

  // ---- shortest structural path to a corrupted output --------------------------
  NodeId target = netlist::kNoNode;
  if (a.detected) {
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      if (po_corruption[o] > 0 &&
          nl.outputs()[o].name == a.corrupted_outputs.front()) {
        target = nl.outputs()[o].driver;
        break;
      }
    }
  }
  if (target != netlist::kNoNode) {
    const std::size_t n = nl.num_nodes();
    std::vector<NodeId> parent(n, netlist::kNoNode);
    std::vector<char> seen(n, 0);
    std::queue<NodeId> queue;
    queue.push(fault.node);
    seen[fault.node] = 1;
    while (!queue.empty() && !seen[target]) {
      const NodeId cur = queue.front();
      queue.pop();
      for (const NodeId next : nl.fanouts(cur)) {
        if (seen[next]) continue;
        seen[next] = 1;
        parent[next] = cur;
        queue.push(next);
      }
    }
    if (seen[target]) {
      std::vector<NodeId> path;
      for (NodeId cur = target; cur != netlist::kNoNode; cur = parent[cur]) {
        path.push_back(cur);
        if (cur == fault.node) break;
      }
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        a.propagation_path.push_back(nl.node(*it).name);
        if (nl.kind(*it) == CellKind::kDff && *it != fault.node)
          ++a.path_flop_crossings;
      }
    }
  }
  if (a.propagation_path.empty())
    a.propagation_path.push_back(nl.node(fault.node).name);
  return a;
}

}  // namespace fcrit::fault
