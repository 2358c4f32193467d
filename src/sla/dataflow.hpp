// Constant/implication propagation over the netlist graph IR.
//
// DataflowAnalysis::run computes, per node, a Ternary over-approximation
// of every value the node can take in any cycle of any workload:
//
//   * primary inputs start (and stay) X;
//   * constants hold their tied value;
//   * flip-flops start at the simulators' reset value (0) and widen with
//     the abstract value of their D input — the classic least-fixpoint
//     iteration through sequential state, which converges because the
//     lattice has height 2;
//   * combinational nodes apply the cell's exhaustive ternary transfer
//     function (src/sla/ternary.hpp).
//
// On top of the plain lattice runs a small implication engine: when a
// gate's output is proved equal (or antivalent) to one of its fanins —
// AND with the other fanin held 1, XOR with a constant side, a mux whose
// data inputs are already equivalent, ... — the two nets join one
// equivalence class (union-find with phase). Class relations feed back
// into the transfer functions, so patterns like XOR(a, a) = 0 or
// AND(a, !a) = 0 resolve to constants the local rules cannot see.
//
// Every conclusion is exported as a Fact: either "node holds constant v in
// every reachable cycle" or "node ≡ ±fanin in every cycle". The fact set
// forms a machine-checkable certificate — verify_facts() re-validates each
// fact locally (exhaustive enumeration over at most 16 fanin assignments)
// as one simultaneous inductive invariant, independent of the fixpoint
// code that produced it. docs/STATIC_ANALYSIS.md spells out the argument.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sla/ternary.hpp"

namespace fcrit::sla {

/// One exported, independently checkable conclusion of the analysis.
struct Fact {
  enum class Kind : std::uint8_t {
    kConst,  // `node` holds `value` in every reachable cycle
    kEquiv,  // `node` equals `other` (xor `opposite`) in every cycle;
             // `other` is always a fanin of `node`
  };
  Kind kind = Kind::kConst;
  netlist::NodeId node = netlist::kNoNode;
  Ternary value = Ternary::kX;
  netlist::NodeId other = netlist::kNoNode;
  bool opposite = false;
};

class DataflowAnalysis {
 public:
  /// Run the fixpoint to convergence. Cost is O(iterations * edges) with
  /// iterations bounded by |flops| + 2 (each flop widens at most once).
  static DataflowAnalysis run(const netlist::Netlist& nl);

  Ternary value(netlist::NodeId id) const { return values_[id]; }
  const std::vector<Ternary>& values() const { return values_; }

  /// True (and *out set) when the node is proved constant.
  bool constant(netlist::NodeId id, bool* out) const {
    if (!is_definite(values_[id])) return false;
    if (out != nullptr) *out = definite_value(values_[id]);
    return true;
  }

  /// Literal of the node's equivalence-class representative:
  /// representative id * 2 + phase. Two nodes are proved equal iff their
  /// literals are identical, antivalent iff they differ only in bit 0.
  /// A lookup: the fixpoint's last pass resolves every node's literal.
  std::uint64_t literal(netlist::NodeId id) const { return literals_[id]; }

  const std::vector<Fact>& facts() const { return facts_; }
  int iterations() const { return iterations_; }
  std::size_t num_constants() const { return num_constants_; }
  std::size_t num_equivalences() const { return num_equivalences_; }

 private:
  std::vector<Ternary> values_;
  std::vector<std::uint64_t> literals_;
  std::vector<Fact> facts_;
  int iterations_ = 0;
  std::size_t num_constants_ = 0;
  std::size_t num_equivalences_ = 0;
};

/// Independently re-check every exported fact against the netlist as one
/// simultaneous inductive invariant (see file comment), and cross-check
/// that every definite lattice value is backed by a fact. Returns false
/// and describes the first violation in *why (when non-null). The
/// `fcrit check` dataflow oracle runs it on every fuzzed circuit.
bool verify_facts(const netlist::Netlist& nl, const DataflowAnalysis& analysis,
                  std::string* why);

/// The node-local blocking test behind divergence_closure and lint's
/// dead-cone note: true when `gate`'s output stays definite while the
/// fanins `unknown(f)` picks turn X. A picked fanin f carries the
/// synthetic literal (num_nodes + f) * 2, keyed by the net and past every
/// real literal, so two pins fed by one picked net stay equal (XOR(g, g)
/// blocks); the other fanins read their lattice values and literals.
/// Combinational gates only: a flip-flop is never transparent to
/// blocking, so callers leave it out (lint's note also leaves out output
/// drivers).
template <typename Unknown>
bool output_stays_definite(const netlist::Netlist& nl,
                           const DataflowAnalysis& analysis,
                           netlist::NodeId gate, Unknown unknown) {
  const netlist::Node& node = nl.node(gate);
  std::array<Ternary, netlist::kMaxFanins> ins{};
  std::array<std::uint64_t, netlist::kMaxFanins> lits{};
  for (std::size_t i = 0; i < node.fanin_count; ++i) {
    const netlist::NodeId f = node.fanin[i];
    if (unknown(f)) {
      ins[i] = Ternary::kX;
      lits[i] = static_cast<std::uint64_t>(nl.num_nodes() + f) * 2;
    } else {
      ins[i] = analysis.value(f);
      lits[i] = analysis.literal(f);
    }
  }
  return is_definite(eval_ternary_related(
      node.kind, std::span<const Ternary>(ins.data(), node.fanin_count),
      std::span<const std::uint64_t>(lits.data(), node.fanin_count)));
}

/// Constant-transparency influence closure: the set of nodes a change on
/// any seed could influence, propagating through a gate only when the
/// gate's output is not pinned by the lattice values of its untouched
/// fanins (flip-flop crossings always propagate). Two pins fed by the same
/// divergent net still carry equal values, so XOR(g, g) blocks. The
/// result is sorted by node id and includes the seeds. The engine behind
/// the lint reset-cone rule.
std::vector<netlist::NodeId> divergence_closure(
    const netlist::Netlist& nl, const DataflowAnalysis& analysis,
    std::span<const netlist::NodeId> seeds);

}  // namespace fcrit::sla
