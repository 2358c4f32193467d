#include "src/sla/dataflow.hpp"

#include <algorithm>
#include <array>

#include "src/netlist/levelize.hpp"

namespace fcrit::sla {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

DataflowAnalysis DataflowAnalysis::run(const Netlist& nl) {
  DataflowAnalysis a;
  const std::size_t n = nl.num_nodes();
  a.values_.assign(n, Ternary::kX);
  // Direct equivalence links of the current pass (node -> one of its
  // fanins); only the fact export below reads them.
  std::vector<NodeId> link_to(n, netlist::kNoNode);
  std::vector<std::uint8_t> link_opposite(n, 0);

  const netlist::Levelization lev = netlist::levelize(nl);

  // Sequential state: flip-flops reset to 0 (PackedSimulator::reset) and
  // widen with their D value until the reachable-state abstraction is
  // stable.
  std::vector<Ternary> ff_state(nl.flops().size(), Ternary::kZero);

  // Per-node resolved literal for the current pass (rebuilt every pass:
  // an equivalence learned under a narrow flop state can dissolve when
  // the state widens). The last pass's literals are the analysis'.
  std::vector<std::uint64_t>& lit = a.literals_;
  lit.resize(n);

  std::array<Ternary, netlist::kMaxFanins> ins{};
  std::array<std::uint64_t, netlist::kMaxFanins> in_lits{};

  for (;;) {
    ++a.iterations_;
    // Seed sources for this pass.
    for (NodeId id = 0; id < n; ++id) {
      lit[id] = static_cast<std::uint64_t>(id) * 2;
      switch (nl.kind(id)) {
        case CellKind::kConst0: a.values_[id] = Ternary::kZero; break;
        case CellKind::kConst1: a.values_[id] = Ternary::kOne; break;
        case CellKind::kInput: a.values_[id] = Ternary::kX; break;
        default: break;
      }
    }
    for (std::size_t i = 0; i < nl.flops().size(); ++i)
      a.values_[nl.flops()[i]] = ff_state[i];

    // One topological combinational pass with implication learning.
    for (const NodeId id : lev.order) {
      const netlist::Node& node = nl.node(id);
      for (std::size_t i = 0; i < node.fanin_count; ++i) {
        ins[i] = a.values_[node.fanin[i]];
        in_lits[i] = lit[node.fanin[i]];
      }
      const std::span<const Ternary> in_span(ins.data(), node.fanin_count);
      const std::span<const std::uint64_t> lit_span(in_lits.data(),
                                                    node.fanin_count);
      const Ternary v = eval_ternary_related(node.kind, in_span, lit_span);
      a.values_[id] = v;
      link_to[id] = netlist::kNoNode;
      link_opposite[id] = 0;
      if (!is_definite(v)) {
        const int learned = learn_equivalence(node.kind, in_span, lit_span);
        if (learned >= 0) {
          const auto slot = static_cast<std::size_t>(learned / 2);
          const bool opposite = (learned & 1) != 0;
          link_to[id] = node.fanin[slot];
          link_opposite[id] = opposite ? 1 : 0;
          lit[id] = lit[node.fanin[slot]] ^ (opposite ? 1u : 0u);
        }
      }
    }

    // Widen flop state with the settled D values; stop at the fixpoint.
    bool changed = false;
    for (std::size_t i = 0; i < nl.flops().size(); ++i) {
      const NodeId d = nl.node(nl.flops()[i]).fanin[0];
      const Ternary widened = join(ff_state[i], a.values_[d]);
      if (widened != ff_state[i]) {
        ff_state[i] = widened;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Export the certificate: one fact per proved constant or equivalence.
  for (NodeId id = 0; id < n; ++id) {
    const CellKind kind = nl.kind(id);
    if (kind == CellKind::kInput) continue;
    if (is_definite(a.values_[id])) {
      Fact f;
      f.kind = Fact::Kind::kConst;
      f.node = id;
      f.value = a.values_[id];
      a.facts_.push_back(f);
      ++a.num_constants_;
    } else if (link_to[id] != netlist::kNoNode) {
      Fact f;
      f.kind = Fact::Kind::kEquiv;
      f.node = id;
      f.other = link_to[id];
      f.opposite = link_opposite[id] != 0;
      a.facts_.push_back(f);
      ++a.num_equivalences_;
    }
  }
  return a;
}

namespace {

/// Enumerate the concrete fanin assignments of `node` consistent with the
/// checker's verified constants and equivalence links, calling `fn` on
/// each. Mirrors ternary.cpp's enumeration but runs entirely off the fact
/// database, not the analysis internals.
template <typename Fn>
bool for_each_checked(const Netlist& nl, NodeId id,
                      const std::vector<Ternary>& consts,
                      const std::vector<std::uint64_t>& lits, Fn&& fn) {
  const netlist::Node& node = nl.node(id);
  const int arity = node.fanin_count;
  bool any = false;
  for (unsigned assign = 0; assign < (1u << arity); ++assign) {
    bool ok = true;
    for (int i = 0; ok && i < arity; ++i) {
      const bool vi = (assign >> i) & 1u;
      const Ternary ci = consts[node.fanin[i]];
      if (is_definite(ci) && vi != definite_value(ci)) ok = false;
    }
    for (int i = 0; ok && i < arity; ++i) {
      for (int j = i + 1; ok && j < arity; ++j) {
        if ((lits[node.fanin[i]] >> 1) != (lits[node.fanin[j]] >> 1)) continue;
        const bool vi = (assign >> i) & 1u;
        const bool vj = (assign >> j) & 1u;
        const bool opposite =
            ((lits[node.fanin[i]] ^ lits[node.fanin[j]]) & 1u) != 0;
        if ((vi != vj) != opposite) ok = false;
      }
    }
    if (!ok) continue;
    any = true;
    std::array<bool, netlist::kMaxFanins> bits{};
    for (int i = 0; i < arity; ++i) bits[i] = (assign >> i) & 1u;
    if (!fn(std::span<const bool>(bits.data(), static_cast<std::size_t>(arity))))
      return false;
  }
  return any;
}

bool fail(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
}

}  // namespace

bool verify_facts(const Netlist& nl, const DataflowAnalysis& analysis,
                  std::string* why) {
  const std::size_t n = nl.num_nodes();

  // Rebuild the checker's own view of the certificate.
  std::vector<Ternary> consts(n, Ternary::kX);
  std::vector<NodeId> link_to(n, netlist::kNoNode);
  std::vector<std::uint8_t> link_opp(n, 0);
  for (const Fact& f : analysis.facts()) {
    if (f.node >= n) return fail(why, "fact names an out-of-range node");
    if (f.kind == Fact::Kind::kConst) {
      if (!is_definite(f.value))
        return fail(why, "constant fact without a definite value");
      consts[f.node] = f.value;
    } else {
      bool is_fanin = false;
      const netlist::Node& node = nl.node(f.node);
      for (std::size_t i = 0; i < node.fanin_count; ++i)
        is_fanin |= node.fanin[i] == f.other;
      if (!is_fanin)
        return fail(why, "equivalence fact does not point at a fanin of " +
                             nl.node(f.node).name);
      link_to[f.node] = f.other;
      link_opp[f.node] = f.opposite ? 1 : 0;
    }
  }

  // Resolve literals through the link forest. Links always point from a
  // node to one of its fanins, so chains terminate (the netlist is
  // combinationally acyclic) and every relation between two nets is
  // justified by facts at strictly lower levels — which is what makes the
  // simultaneous induction below well-founded.
  std::vector<std::uint64_t> lits(n);
  std::vector<std::uint8_t> resolved(n, 0);
  std::vector<NodeId> path;
  for (NodeId id = 0; id < n; ++id) {
    if (resolved[id]) continue;
    path.clear();
    NodeId cur = id;
    while (!resolved[cur] && link_to[cur] != netlist::kNoNode) {
      path.push_back(cur);
      cur = link_to[cur];
    }
    if (!resolved[cur]) {
      lits[cur] = static_cast<std::uint64_t>(cur) * 2;
      resolved[cur] = 1;
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      lits[*it] = lits[link_to[*it]] ^ link_opp[*it];
      resolved[*it] = 1;
    }
  }

  // Check every fact locally as an inductive step.
  for (const Fact& f : analysis.facts()) {
    const CellKind kind = nl.kind(f.node);
    if (f.kind == Fact::Kind::kConst) {
      const bool v = definite_value(f.value);
      if (kind == CellKind::kConst0 || kind == CellKind::kConst1) {
        if (v != (kind == CellKind::kConst1))
          return fail(why, "constant cell fact with the wrong value at " +
                               nl.node(f.node).name);
        continue;
      }
      if (kind == CellKind::kInput)
        return fail(why, "constant fact on a primary input " + nl.node(f.node).name);
      if (kind == CellKind::kDff) {
        // Init value is 0, so a constant flop must claim 0 and its D input
        // must itself be proved constant 0.
        if (v) return fail(why, "flop claimed constant 1 at " + nl.node(f.node).name);
        const NodeId d = nl.node(f.node).fanin[0];
        if (consts[d] != Ternary::kZero)
          return fail(why, "constant-flop fact without a constant-0 D at " +
                               nl.node(f.node).name);
        continue;
      }
      bool holds = true;
      const bool any = for_each_checked(
          nl, f.node, consts, lits, [&](std::span<const bool> bits) {
            if (netlist::eval_bool(kind, bits) != v) holds = false;
            return holds;
          });
      if (!any)
        return fail(why, "constant fact with no consistent fanin assignment "
                         "at " + nl.node(f.node).name);
      if (!holds)
        return fail(why, "constant fact refuted by a fanin assignment at " +
                             nl.node(f.node).name);
    } else {
      if (kind == CellKind::kInput || kind == CellKind::kDff ||
          kind == CellKind::kConst0 || kind == CellKind::kConst1)
        return fail(why, "equivalence fact on a non-combinational node " +
                             nl.node(f.node).name);
      const netlist::Node& node = nl.node(f.node);
      std::size_t slot = netlist::kMaxFanins;
      for (std::size_t i = 0; i < node.fanin_count; ++i)
        if (node.fanin[i] == f.other) slot = i;
      bool holds = true;
      const bool any = for_each_checked(
          nl, f.node, consts, lits, [&](std::span<const bool> bits) {
            if (netlist::eval_bool(kind, bits) != (bits[slot] ^ f.opposite))
              holds = false;
            return holds;
          });
      if (!any)
        return fail(why, "equivalence fact with no consistent fanin "
                         "assignment at " + nl.node(f.node).name);
      if (!holds)
        return fail(why, "equivalence fact refuted by a fanin assignment at " +
                             nl.node(f.node).name);
    }
  }

  // Cross-check: every definite lattice value must be backed by a fact,
  // and agree with it (lint consumes values(), the checker validated
  // facts — the two must be the same statement).
  for (NodeId id = 0; id < n; ++id) {
    if (nl.kind(id) == CellKind::kInput) continue;
    if (is_definite(analysis.value(id)) && consts[id] != analysis.value(id))
      return fail(why, "lattice value of " + nl.node(id).name +
                           " is not backed by a verified fact");
  }
  return true;
}

std::vector<NodeId> divergence_closure(const Netlist& nl,
                                       const DataflowAnalysis& analysis,
                                       std::span<const NodeId> seeds) {
  std::vector<std::uint8_t> divergent(nl.num_nodes(), 0);
  std::vector<NodeId> queue;
  auto mark = [&](NodeId id) {
    divergent[id] = 1;
    queue.push_back(id);
  };
  for (const NodeId s : seeds)
    if (!divergent[s]) mark(s);

  auto is_divergent = [&](NodeId f) { return divergent[f] != 0; };
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId c : nl.fanouts(queue[head])) {
      if (divergent[c]) continue;
      // State loads the (divergent) D on the next edge; registers are
      // never transparent to blocking.
      if (nl.kind(c) != CellKind::kDff &&
          output_stays_definite(nl, analysis, c, is_divergent))
        continue;
      mark(c);
    }
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

}  // namespace fcrit::sla
