#include "src/sim/packed_sim.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "src/netlist/levelize.hpp"

namespace fcrit::sim {

using netlist::CellKind;

namespace {

/// Evaluate `count` gates of kind K from their (output, fanins...) records.
template <CellKind K>
void eval_run(std::uint64_t* value, const NodeId* rec, std::uint32_t count) {
  constexpr auto kArity = static_cast<std::size_t>(netlist::spec(K).arity);
  for (std::uint32_t g = 0; g < count; ++g, rec += 1 + kArity) {
    std::array<std::uint64_t, kArity> ins{};
    for (std::size_t j = 0; j < kArity; ++j) ins[j] = value[rec[1 + j]];
    value[rec[0]] = netlist::eval_cell<K>(ins.data());
  }
}

}  // namespace

PackedSimulator::PackedSimulator(const Netlist& nl) : nl_(&nl) {
  // Level-major, kind-minor; stable, so a run keeps topological order.
  const netlist::Levelization lev = netlist::levelize(nl);
  std::vector<NodeId> order = lev.order;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (lev.level[a] != lev.level[b]) return lev.level[a] < lev.level[b];
    return nl.kind(a) < nl.kind(b);
  });
  int run_level = -1;
  for (const NodeId id : order) {
    const netlist::Node& n = nl.node(id);
    if (runs_.empty() || runs_.back().kind != n.kind ||
        lev.level[id] != run_level) {
      runs_.push_back({n.kind, 0, static_cast<std::uint32_t>(prog_.size())});
      run_level = lev.level[id];
    }
    ++runs_.back().count;
    prog_.push_back(id);
    prog_.insert(prog_.end(), n.fanin.begin(), n.fanin.begin() + n.fanin_count);
  }
  for (const NodeId ff : nl.flops()) flop_d_.push_back(nl.node(ff).fanin[0]);

  value_.assign(nl.num_nodes(), 0);
  ff_next_.assign(nl.flops().size(), 0);
  reset();
}

void PackedSimulator::reset() {
  std::fill(value_.begin(), value_.end(), 0);
  // Constants hold their value permanently.
  for (NodeId id = 0; id < nl_->num_nodes(); ++id) {
    if (nl_->kind(id) == CellKind::kConst1) value_[id] = ~0ULL;
  }
}

void PackedSimulator::step(std::span<const std::uint64_t> pi_words) {
  eval_comb(pi_words);
  clock();
}

void PackedSimulator::eval_comb(std::span<const std::uint64_t> pi_words) {
  const auto& inputs = nl_->inputs();
  if (pi_words.size() != inputs.size())
    throw std::runtime_error("PackedSimulator::step: input word count");

  for (std::size_t i = 0; i < inputs.size(); ++i)
    value_[inputs[i]] = pi_words[i];

  // A fault on a source node (PI, constant or DFF output) overrides its
  // value before combinational evaluation; one on a gate is forced right
  // after the gate's run, before any deeper level reads it.
  const std::uint64_t fault_word = fault_value_ ? ~0ULL : 0;
  if (fault_node_ != netlist::kNoNode && fault_run_ == kNoRun)
    value_[fault_node_] = fault_word;

  std::uint64_t* const value = value_.data();
  const NodeId* const prog = prog_.data();
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const Run run = runs_[r];
    netlist::visit_kind(run.kind, [&](auto k) {
      eval_run<decltype(k)::value>(value, prog + run.offset, run.count);
    });
    if (r == fault_run_) value[fault_node_] = fault_word;
  }
}

void PackedSimulator::clock() {
  // Compute all DFF next states from the settled combinational values,
  // then commit.
  const auto& flops = nl_->flops();
  for (std::size_t i = 0; i < flops.size(); ++i)
    ff_next_[i] = value_[flop_d_[i]];
  for (std::size_t i = 0; i < flops.size(); ++i) value_[flops[i]] = ff_next_[i];
  if (fault_node_ != netlist::kNoNode &&
      nl_->kind(fault_node_) == CellKind::kDff)
    value_[fault_node_] = fault_value_ ? ~0ULL : 0;
}

void PackedSimulator::inject(NodeId node, bool stuck_value) {
  assert(node < nl_->num_nodes());
  fault_node_ = node;
  fault_value_ = stuck_value;
  fault_run_ = kNoRun;
  for (std::size_t r = 0; r < runs_.size() && fault_run_ == kNoRun; ++r) {
    const Run& run = runs_[r];
    const std::size_t stride = 1 + netlist::spec(run.kind).arity;
    for (std::uint32_t g = 0; g < run.count; ++g)
      if (prog_[run.offset + g * stride] == node) fault_run_ = r;
  }
}

void PackedSimulator::clear_fault() {
  fault_node_ = netlist::kNoNode;
  fault_run_ = kNoRun;
}

}  // namespace fcrit::sim
