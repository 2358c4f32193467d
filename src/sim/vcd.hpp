// VCD (Value Change Dump, IEEE 1364) waveform writer for the packed
// simulator: records one selected lane of a set of watched signals so
// traces can be inspected in GTKWave & co. Used by the CLI and by tests to
// validate simulator behaviour against an independently-parsed dump.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/packed_sim.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::sim {

class VcdWriter {
 public:
  /// Watches `signals` (node ids, dumped under their node names) of `lane`
  /// in the given simulator. Writes the VCD header immediately.
  VcdWriter(std::ostream& os, const PackedSimulator& simulator,
            std::vector<netlist::NodeId> signals, int lane,
            const std::string& timescale = "1ns");

  /// Sample the watched signals at the current simulation state; emits
  /// value changes only (first call dumps all values).
  void sample(std::uint64_t time);

  std::size_t num_signals() const { return signals_.size(); }

 private:
  std::ostream* os_;
  const PackedSimulator* simulator_;
  std::vector<netlist::NodeId> signals_;
  int lane_;
  std::vector<char> last_;  // previous value per signal, -1 initially
  std::vector<std::string> id_codes_;
};

/// Convenience: simulate `cycles` cycles with `stimulus` and dump every
/// primary input/output of lane `lane` to `os`. Throws std::runtime_error
/// when `cycles` is below 1, before anything is written.
void dump_vcd(const netlist::Netlist& nl, const StimulusSpec& stimulus,
              std::uint64_t seed, int cycles, int lane, std::ostream& os);

}  // namespace fcrit::sim
