#include "src/netlist/stats.hpp"

#include <algorithm>

#include "src/netlist/levelize.hpp"
#include "src/util/text.hpp"

namespace fcrit::netlist {

NetlistStats compute_stats(const Netlist& nl) {
  NetlistStats s;
  s.name = nl.name();
  s.num_nodes = nl.num_nodes();
  s.num_gates = nl.num_gates();
  s.num_inputs = nl.inputs().size();
  s.num_outputs = nl.outputs().size();
  s.num_flops = nl.flops().size();
  s.num_edges = nl.num_edges();
  s.logic_depth = levelize(nl).max_level;

  std::size_t fanout_sum = 0;
  std::size_t fanout_nodes = 0;
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    s.kind_histogram[static_cast<std::size_t>(nl.kind(id))]++;
    const CellKind k = nl.kind(id);
    if (k == CellKind::kInput || k == CellKind::kConst0 ||
        k == CellKind::kConst1)
      continue;
    const std::size_t fo = nl.fanouts(id).size();
    fanout_sum += fo;
    s.max_fanout = std::max(s.max_fanout, fo);
    ++fanout_nodes;
  }
  s.avg_fanout = fanout_nodes == 0
                     ? 0.0
                     : static_cast<double>(fanout_sum) /
                           static_cast<double>(fanout_nodes);
  return s;
}

std::string NetlistStats::to_string() const {
  std::string out;
  out += "netlist '" + name + "': ";
  out += std::to_string(num_gates) + " gates, ";
  out += std::to_string(num_inputs) + " PIs, ";
  out += std::to_string(num_outputs) + " POs, ";
  out += std::to_string(num_flops) + " FFs, ";
  out += std::to_string(num_edges) + " edges, depth " +
         std::to_string(logic_depth);
  out += ", avg fanout " + util::format_double(avg_fanout, 2);
  out += "\n  cells:";
  for (int k = 0; k < kNumCellKinds; ++k) {
    const auto count = kind_histogram[static_cast<std::size_t>(k)];
    if (count == 0) continue;
    out += " ";
    out += spec(static_cast<CellKind>(k)).name;
    out += "=";
    out += std::to_string(count);
  }
  return out;
}

}  // namespace fcrit::netlist
