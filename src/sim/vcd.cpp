#include "src/sim/vcd.hpp"

#include <stdexcept>

namespace fcrit::sim {

namespace {

/// VCD identifier codes: printable ASCII 33..126, multi-char for >94.
std::string id_code(std::size_t index) {
  std::string code;
  do {
    code += static_cast<char>(33 + index % 94);
    index /= 94;
  } while (index > 0);
  return code;
}

}  // namespace

VcdWriter::VcdWriter(std::ostream& os, const PackedSimulator& simulator,
                     std::vector<netlist::NodeId> signals, int lane,
                     const std::string& timescale)
    : os_(&os),
      simulator_(&simulator),
      signals_(std::move(signals)),
      lane_(lane) {
  if (lane < 0 || lane >= kLanes)
    throw std::runtime_error("VcdWriter: lane out of range");
  last_.assign(signals_.size(), -1);
  id_codes_.reserve(signals_.size());
  for (std::size_t i = 0; i < signals_.size(); ++i)
    id_codes_.push_back(id_code(i));

  const netlist::Netlist& nl = simulator_->netlist();
  os << "$date fcrit $end\n";
  os << "$version fcrit packed simulator $end\n";
  os << "$timescale " << timescale << " $end\n";
  os << "$scope module " << nl.name() << " $end\n";
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    if (signals_[i] >= nl.num_nodes())
      throw std::runtime_error("VcdWriter: signal out of range");
    os << "$var wire 1 " << id_codes_[i] << " "
       << nl.node(signals_[i]).name << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";
}

void VcdWriter::sample(std::uint64_t time) {
  bool header_written = false;
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    const char v = static_cast<char>(
        (simulator_->value(signals_[i]) >> lane_) & 1);
    if (v == last_[i]) continue;
    if (!header_written) {
      (*os_) << "#" << time << "\n";
      header_written = true;
    }
    (*os_) << static_cast<int>(v) << id_codes_[i] << "\n";
    last_[i] = v;
  }
}

void dump_vcd(const netlist::Netlist& nl, const StimulusSpec& stimulus,
              std::uint64_t seed, int cycles, int lane, std::ostream& os) {
  if (cycles < 1)
    throw std::runtime_error("dump_vcd: cycles must be positive");
  PackedSimulator simulator(nl);
  StimulusGenerator stim(nl, stimulus, seed);

  std::vector<netlist::NodeId> watched = nl.inputs();
  for (const auto& port : nl.outputs()) watched.push_back(port.driver);

  VcdWriter vcd(os, simulator, watched, lane);
  std::vector<std::uint64_t> words;
  for (int t = 0; t < cycles; ++t) {
    stim.next_cycle(words);
    simulator.eval_comb(words);
    vcd.sample(static_cast<std::uint64_t>(t));
    simulator.clock();
  }
}

}  // namespace fcrit::sim
