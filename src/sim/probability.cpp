#include "src/sim/probability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/netlist/levelize.hpp"
#include "src/sim/packed_sim.hpp"

namespace fcrit::sim {

using netlist::CellKind;
using netlist::NodeId;

namespace {

// Population counts in plain integer operations. The repo builds for
// baseline x86-64, which has no POPCNT instruction, so std::popcount is a
// libgcc call per word; these inline to a few ALU operations each and
// vectorise.

/// Byte i of the result counts the ones in byte i of x (0..8).
inline std::uint64_t byte_counts(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
}

/// The sum of the eight bytes of x.
inline std::uint64_t byte_sum(std::uint64_t x) {
  x = (x & 0x00ff00ff00ff00ffULL) + ((x >> 8) & 0x00ff00ff00ff00ffULL);
  x += x >> 16;
  x += x >> 32;
  return x & 0xffff;
}

/// Cycles a byte-sliced partial count may absorb: 31 * 8 <= 255.
constexpr int kFoldCycles = 31;

}  // namespace

SignalStats estimate_by_simulation(const netlist::Netlist& nl,
                                   const StimulusSpec& spec,
                                   std::uint64_t seed, int cycles,
                                   int skip_cycles) {
  if (cycles <= 0) throw std::runtime_error("estimate_by_simulation: cycles");
  if (skip_cycles < 0)
    throw std::runtime_error("estimate_by_simulation: skip_cycles < 0");
  if (cycles > std::numeric_limits<int>::max() - skip_cycles)
    throw std::runtime_error(
        "estimate_by_simulation: cycles + skip_cycles overflows int");
  PackedSimulator simulator(nl);
  StimulusGenerator stim(nl, spec, seed);

  // Per node, each counted cycle adds byte_counts of the value word (and of
  // its change since the previous cycle) into a byte-sliced partial word;
  // every kFoldCycles cycles, before a byte could overflow, the partials
  // fold into the exact 64-bit totals.
  const std::size_t n = nl.num_nodes();
  std::vector<std::uint64_t> ones(n, 0), ones_part(n, 0);
  std::vector<std::uint64_t> transitions(n, 0), transitions_part(n, 0);
  std::vector<std::uint64_t> prev(n, 0);
  const auto fold = [&] {
    for (std::size_t id = 0; id < n; ++id) {
      ones[id] += byte_sum(ones_part[id]);
      transitions[id] += byte_sum(transitions_part[id]);
      ones_part[id] = transitions_part[id] = 0;
    }
  };

  std::vector<std::uint64_t> words;
  std::uint64_t counted_cycles = 0;
  for (int t = 0; t < cycles + skip_cycles; ++t) {
    stim.next_cycle(words);
    simulator.eval_comb(words);
    const std::uint64_t* v = simulator.values().data();
    if (t == skip_cycles) {
      for (std::size_t id = 0; id < n; ++id)
        ones_part[id] += byte_counts(v[id]);
    } else if (t > skip_cycles) {
      for (std::size_t id = 0; id < n; ++id) {
        ones_part[id] += byte_counts(v[id]);
        transitions_part[id] += byte_counts(v[id] ^ prev[id]);
      }
    }
    if (t >= skip_cycles) {
      std::copy(v, v + n, prev.begin());
      if (++counted_cycles % kFoldCycles == 0) fold();
    }
    simulator.clock();
  }
  fold();

  SignalStats stats;
  stats.p1.resize(n);
  stats.p_transition.resize(n);
  const double sample_count = static_cast<double>(counted_cycles) * kLanes;
  const double transition_count =
      static_cast<double>(counted_cycles - 1) * kLanes;
  for (NodeId id = 0; id < n; ++id) {
    stats.p1[id] = static_cast<double>(ones[id]) / sample_count;
    stats.p_transition[id] =
        transition_count > 0
            ? static_cast<double>(transitions[id]) / transition_count
            : 0.0;
  }
  return stats;
}

std::vector<double> estimate_p1_analytic(const netlist::Netlist& nl,
                                         const std::vector<double>& pi_p1,
                                         int max_iterations, double tol) {
  if (pi_p1.size() != nl.inputs().size())
    throw std::runtime_error("estimate_p1_analytic: pi_p1 size");

  const std::size_t n = nl.num_nodes();
  std::vector<double> p(n, 0.5);
  for (NodeId id = 0; id < n; ++id) {
    switch (nl.kind(id)) {
      case CellKind::kConst0:
        p[id] = 0.0;
        break;
      case CellKind::kConst1:
        p[id] = 1.0;
        break;
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    p[nl.inputs()[i]] = pi_p1[i];

  const auto lev = netlist::levelize(nl);
  std::vector<double> fanin_p;
  for (int iter = 0; iter < max_iterations; ++iter) {
    double max_delta = 0.0;
    // Forward pass over combinational logic.
    for (const NodeId id : lev.order) {
      const netlist::Node& node = nl.node(id);
      fanin_p.clear();
      for (const NodeId f : node.fanins()) fanin_p.push_back(p[f]);
      const double next = netlist::output_one_probability(node.kind, fanin_p);
      max_delta = std::max(max_delta, std::abs(next - p[id]));
      p[id] = next;
    }
    // Sequential fixpoint: a DFF's steady-state P1 equals its D input's P1.
    for (const NodeId ff : nl.flops()) {
      const double next = p[nl.node(ff).fanin[0]];
      max_delta = std::max(max_delta, std::abs(next - p[ff]));
      p[ff] = next;
    }
    if (max_delta < tol) break;
  }
  return p;
}

AnalyticActivity estimate_activity_analytic(
    const netlist::Netlist& nl, const std::vector<double>& pi_p1,
    const std::vector<double>& pi_toggle, int max_iterations, double tol) {
  if (pi_p1.size() != nl.inputs().size() ||
      pi_toggle.size() != nl.inputs().size())
    throw std::runtime_error("estimate_activity_analytic: input sizes");

  const std::size_t n = nl.num_nodes();
  AnalyticActivity a;
  a.p1.assign(n, 0.5);
  a.p_transition.assign(n, 0.0);
  for (NodeId id = 0; id < n; ++id) {
    if (nl.kind(id) == CellKind::kConst0) a.p1[id] = 0.0;
    if (nl.kind(id) == CellKind::kConst1) a.p1[id] = 1.0;
  }
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    a.p1[nl.inputs()[i]] = pi_p1[i];
    a.p_transition[nl.inputs()[i]] = pi_toggle[i];
  }

  // Joint two-cycle distribution of one signal from (p1, t): a stationary
  // two-state Markov chain with P(0->1) = t / (2(1-p1)), P(1->0) = t/(2 p1).
  auto joint = [](double p1, double t, bool now, bool next) -> double {
    p1 = std::clamp(p1, 0.0, 1.0);
    const double p0 = 1.0 - p1;
    // Degenerate signals never toggle.
    if (p1 <= 1e-12) return (!now && !next) ? 1.0 : 0.0;
    if (p0 <= 1e-12) return (now && next) ? 1.0 : 0.0;
    const double alpha = std::min(1.0, t / (2.0 * p0));  // P(0 -> 1)
    const double beta = std::min(1.0, t / (2.0 * p1));   // P(1 -> 0)
    const double p_now = now ? p1 : p0;
    const double p_next_given_now =
        now ? (next ? 1.0 - beta : beta) : (next ? alpha : 1.0 - alpha);
    return p_now * p_next_given_now;
  };

  const auto lev = netlist::levelize(nl);
  for (int iter = 0; iter < max_iterations; ++iter) {
    double max_delta = 0.0;
    for (const NodeId id : lev.order) {
      const netlist::Node& node = nl.node(id);
      const int arity = node.fanin_count;
      const std::uint16_t tt = netlist::truth_table(node.kind);
      double p1_out = 0.0, t_out = 0.0;
      for (int v = 0; v < (1 << arity); ++v) {
        // Marginal this cycle.
        double pv = 1.0;
        for (int j = 0; j < arity; ++j) {
          const NodeId f = node.fanin[static_cast<std::size_t>(j)];
          const bool bit = (v >> j) & 1;
          pv *= bit ? a.p1[f] : 1.0 - a.p1[f];
        }
        if ((tt >> v) & 1) p1_out += pv;
        // Pairs (v, v') for the transition probability.
        for (int w = 0; w < (1 << arity); ++w) {
          const bool out_v = (tt >> v) & 1;
          const bool out_w = (tt >> w) & 1;
          if (out_v == out_w) continue;
          double pvw = 1.0;
          for (int j = 0; j < arity && pvw > 0.0; ++j) {
            const NodeId f = node.fanin[static_cast<std::size_t>(j)];
            pvw *= joint(a.p1[f], a.p_transition[f], (v >> j) & 1,
                         (w >> j) & 1);
          }
          t_out += pvw;
        }
      }
      max_delta = std::max({max_delta, std::abs(p1_out - a.p1[id]),
                            std::abs(t_out - a.p_transition[id])});
      a.p1[id] = p1_out;
      a.p_transition[id] = t_out;
    }
    for (const NodeId ff : nl.flops()) {
      const NodeId d = nl.node(ff).fanin[0];
      max_delta = std::max({max_delta, std::abs(a.p1[d] - a.p1[ff]),
                            std::abs(a.p_transition[d] -
                                     a.p_transition[ff])});
      a.p1[ff] = a.p1[d];
      a.p_transition[ff] = a.p_transition[d];
    }
    if (max_delta < tol) break;
  }
  return a;
}

}  // namespace fcrit::sim
