// Scalar single-pattern reference interpreter for the differential oracle.
//
// This is the "obviously correct" simulator the bit-parallel PackedSimulator
// is checked against: one bool per node, one workload at a time, gate
// semantics written out as an independent switch (not derived from
// netlist::eval_cell), and a private DFS topological order (not
// netlist::levelize).
// It shares nothing with the production simulator beyond the Netlist data
// model, so a bug in the packed evaluation, the levelization, or the word
// packing shows up as a divergence instead of cancelling out.
//
// The ScalarBug knob plants a deliberate defect (wrong XOR, never-clocking
// flip-flops) so tests can prove the oracle is actually able to fail.
#pragma once

#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace fcrit::check {

/// Deliberate defects for harness self-tests. kNone is the reference
/// semantics; everything else must be caught by the differential oracle.
enum class ScalarBug {
  kNone,
  kXorAsOr,   // evaluates EO2/EN2 as OR2/NOR2
  kStaleDff,  // flip-flops never clock (stay at their reset state)
};

class ScalarSimulator {
 public:
  explicit ScalarSimulator(const netlist::Netlist& nl,
                           ScalarBug bug = ScalarBug::kNone);

  /// Power-on state: every flip-flop and node value 0, constants forced.
  void reset();

  /// Settle combinational logic for one cycle; `pi_bits[i]` drives input i
  /// (in netlist inputs() order). Flip-flops keep holding current state.
  void eval_comb(const std::vector<bool>& pi_bits);

  /// Clock edge: every DFF captures its D.
  void clock();

  void step(const std::vector<bool>& pi_bits) {
    eval_comb(pi_bits);
    clock();
  }

  /// Node value after the last eval_comb().
  bool value(netlist::NodeId id) const { return value_[id] != 0; }

 private:
  bool eval_gate(netlist::NodeId id) const;

  const netlist::Netlist* nl_;
  ScalarBug bug_;
  std::vector<netlist::NodeId> order_;  // private topological order (DFS)
  std::vector<std::uint8_t> value_;
};

}  // namespace fcrit::check
