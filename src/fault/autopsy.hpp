// Fault autopsy: the debugging story behind one fault's verdict.
//
// Re-simulates a single fault on the packed simulator (its stuck-at
// injection, PackedSimulator::inject), driven by the campaign's recorded
// stimulus and compared with its golden trace, and reconstructs what an
// engineer needs to understand the failure: the first corrupted
// cycle and workload, which primary outputs were corrupted there, a
// shortest structural propagation path from the fault site to one
// corrupted output (crossing flip-flops — each crossing is a cycle of
// latency), and the per-output corruption counts. Exposed through the CLI
// as `fcrit autopsy`.
#pragma once

#include <string>
#include <vector>

#include "src/fault/fault_sim.hpp"

namespace fcrit::fault {

struct Autopsy {
  Fault fault;
  bool detected = false;
  int first_cycle = -1;            // first corrupted cycle
  int first_lane = -1;             // a workload corrupted at that cycle
  std::vector<std::string> corrupted_outputs;  // at the first cycle

  /// Node names from the fault site to a corrupted output: a shortest
  /// structural path through the fanout graph.
  std::vector<std::string> propagation_path;
  int path_flop_crossings = 0;     // sequential depth of the path

  /// (output name, corrupted cycle count over the whole campaign window).
  std::vector<std::pair<std::string, int>> output_corruption;

  std::string to_string() const;
};

/// Run the autopsy. `campaign` must have its golden trace recorded (any
/// run()/run_golden() call does this).
Autopsy run_autopsy(const FaultCampaign& campaign,
                    const netlist::Netlist& nl, const Fault& fault);

}  // namespace fcrit::fault
