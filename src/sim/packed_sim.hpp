// Bit-parallel levelized sequential logic simulator.
//
// Each 64-bit word carries 64 independent simulation lanes; lane L of every
// node's value word belongs to workload L. One step() call therefore
// advances 64 complete workloads by one clock cycle. Flip-flop state is held
// per lane, so the lanes are fully independent sequential simulations. This
// is the substrate that replaces the paper's commercial fault simulator: the
// fault campaign (src/fault) runs one golden pass plus one pass per stuck-at
// fault and reads off a per-lane "Dangerous" verdict from the packed words.
//
// The constructor compiles the netlist into a flat gate program: the
// combinational gates ordered by level and, within a level, grouped into
// runs of one cell kind. Gates on one level never read each other, so any
// order inside a level settles the same words; each run is then evaluated by
// a loop specialised for its kind (netlist::eval_cell), with no per-gate
// call and no per-gate kind switch, reading only the program's node ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace fcrit::sim {

using netlist::Netlist;
using netlist::NodeId;

inline constexpr int kLanes = 64;

class PackedSimulator {
 public:
  explicit PackedSimulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  /// Clear all flip-flops (power-on state 0 in every lane) and node values.
  void reset();

  /// Advance one clock cycle: drive the primary inputs with `pi_words`
  /// (one word per input, in inputs() order), evaluate the combinational
  /// logic, then clock every DFF. Equivalent to eval_comb() + clock().
  void step(std::span<const std::uint64_t> pi_words);

  /// Phase 1: drive inputs and settle combinational logic. After this call,
  /// value(id) is cycle-consistent for every node: DFFs still hold the
  /// current-state Q that the combinational values were computed from.
  void eval_comb(std::span<const std::uint64_t> pi_words);

  /// Phase 2: clock edge — commit every DFF's next state.
  void clock();

  /// Node output word after the last step()'s combinational evaluation.
  std::uint64_t value(NodeId id) const { return value_[id]; }

  /// All node value words after the last combinational settle, indexed by
  /// NodeId — the row the fault campaign's golden trace copies per cycle.
  std::span<const std::uint64_t> values() const { return value_; }

  /// Word of primary output `output_idx` (index into netlist().outputs()).
  std::uint64_t output_word(std::size_t output_idx) const {
    return value_[nl_->outputs()[output_idx].driver];
  }

  /// Inject a stuck-at fault at the output of `node`: every lane sees the
  /// node forced to `stuck_value` from the next step() on.
  void inject(NodeId node, bool stuck_value);
  void clear_fault();
  bool has_fault() const { return fault_node_ != netlist::kNoNode; }

 private:
  /// `count` gates of one kind on one level. Their records sit in prog_
  /// from `offset`, 1 + arity node ids each: the output, then the fanins.
  struct Run {
    netlist::CellKind kind;
    std::uint32_t count;
    std::uint32_t offset;
  };
  static constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);

  const Netlist* nl_;
  std::vector<Run> runs_;
  std::vector<NodeId> prog_;
  std::vector<NodeId> flop_d_;  // D fanin per flop, in flops() order
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> ff_next_;  // scratch, one per flop
  NodeId fault_node_ = netlist::kNoNode;
  bool fault_value_ = false;
  // The run holding a faulty combinational node, after which the stuck
  // word is forced; kNoRun for a fault on a source or DFF node.
  std::size_t fault_run_ = kNoRun;
};

}  // namespace fcrit::sim
