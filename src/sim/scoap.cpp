#include "src/sim/scoap.hpp"

#include <algorithm>
#include <cmath>

#include "src/netlist/levelize.hpp"

namespace fcrit::sim {

using netlist::CellKind;
using netlist::NodeId;

namespace {

constexpr int kMaxIterations = 64;  // sequential fixpoint iterations
constexpr double kTolerance = 1e-6;
constexpr double kSequentialCost = 1.0;  // added per DFF crossing

/// Cost of driving input `j` of the row assignment: CC0 or CC1.
inline double input_cost(const ScoapResult& r, NodeId fanin, bool value) {
  return value ? r.cc1[fanin] : r.cc0[fanin];
}

}  // namespace

ScoapResult compute_scoap(const netlist::Netlist& nl) {
  const std::size_t n = nl.num_nodes();
  ScoapResult r;
  r.cc0.assign(n, kScoapCap);
  r.cc1.assign(n, kScoapCap);
  r.co.assign(n, kScoapCap);

  // Base controllabilities.
  for (NodeId id = 0; id < n; ++id) {
    switch (nl.kind(id)) {
      case CellKind::kInput:
        r.cc0[id] = 1.0;
        r.cc1[id] = 1.0;
        break;
      case CellKind::kConst0:
        r.cc0[id] = 1.0;  // already 0; cc1 stays capped (impossible)
        break;
      case CellKind::kConst1:
        r.cc1[id] = 1.0;
        break;
      default:
        break;
    }
  }

  const auto lev = netlist::levelize(nl);

  // ---- controllability fixpoint ---------------------------------------------
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    double max_delta = 0.0;
    auto update = [&](NodeId id, double c0, double c1) {
      c0 = std::min(c0, kScoapCap);
      c1 = std::min(c1, kScoapCap);
      max_delta = std::max({max_delta, std::abs(c0 - r.cc0[id]),
                            std::abs(c1 - r.cc1[id])});
      r.cc0[id] = c0;
      r.cc1[id] = c1;
    };

    for (const NodeId id : lev.order) {
      const netlist::Node& node = nl.node(id);
      const int arity = node.fanin_count;
      const std::uint16_t tt = netlist::truth_table(node.kind);
      // Minimize over *cubes* (inputs in {0, 1, X}): a don't-care input
      // costs nothing. This reproduces the classical SCOAP formulas, e.g.
      // CC0(AND) = min(CC0(inputs)) + 1 while CC1(AND) sums all inputs.
      double best0 = kScoapCap, best1 = kScoapCap;
      int pow3 = 1;
      for (int j = 0; j < arity; ++j) pow3 *= 3;
      for (int cube = 0; cube < pow3; ++cube) {
        // Decode trits: 0 -> input 0, 1 -> input 1, 2 -> don't care.
        int trits[netlist::kMaxFanins] = {0, 0, 0, 0};
        int rest = cube;
        double cost = 1.0;  // the gate itself
        for (int j = 0; j < arity; ++j) {
          trits[j] = rest % 3;
          rest /= 3;
          if (trits[j] != 2)
            cost += input_cost(r, node.fanin[static_cast<std::size_t>(j)],
                               trits[j] == 1);
        }
        // The cube implies a constant output iff all completions agree.
        bool all_one = true, all_zero = true;
        for (int row = 0; row < (1 << arity); ++row) {
          bool compatible = true;
          for (int j = 0; j < arity; ++j) {
            if (trits[j] != 2 && ((row >> j) & 1) != trits[j]) {
              compatible = false;
              break;
            }
          }
          if (!compatible) continue;
          if ((tt >> row) & 1)
            all_zero = false;
          else
            all_one = false;
        }
        if (all_one) best1 = std::min(best1, cost);
        if (all_zero) best0 = std::min(best0, cost);
      }
      update(id, best0, best1);
    }
    for (const NodeId ff : nl.flops()) {
      const NodeId d = nl.node(ff).fanin[0];
      update(ff, r.cc0[d] + kSequentialCost, r.cc1[d] + kSequentialCost);
    }
    if (max_delta < kTolerance) break;
  }

  // ---- observability fixpoint --------------------------------------------------
  for (const auto& port : nl.outputs()) r.co[port.driver] = 0.0;

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    double max_delta = 0.0;
    // Reverse topological order: consumers before producers.
    for (auto it = lev.order.rbegin(); it != lev.order.rend(); ++it) {
      const NodeId g = *it;
      const netlist::Node& node = nl.node(g);
      const int arity = node.fanin_count;
      const std::uint16_t tt = netlist::truth_table(node.kind);
      for (int pin = 0; pin < arity; ++pin) {
        const NodeId fanin = node.fanin[static_cast<std::size_t>(pin)];
        // Minimum-cost sensitizing assignment of the other pins.
        double best = kScoapCap;
        for (int row = 0; row < (1 << arity); ++row) {
          if ((row >> pin) & 1) continue;  // consider pin=0 base rows
          const int row1 = row | (1 << pin);
          const bool out0 = (tt >> row) & 1;
          const bool out1 = (tt >> row1) & 1;
          if (out0 == out1) continue;  // pin not sensitized under this row
          double cost = r.co[g] + 1.0;
          for (int j = 0; j < arity; ++j) {
            if (j == pin) continue;
            cost += input_cost(r, node.fanin[static_cast<std::size_t>(j)],
                               (row >> j) & 1);
          }
          best = std::min(best, cost);
        }
        best = std::min(best, kScoapCap);
        if (best < r.co[fanin]) {
          max_delta = std::max(max_delta, r.co[fanin] - best);
          r.co[fanin] = best;
        }
      }
    }
    // DFFs: observing D requires observing Q one cycle later.
    for (const NodeId ff : nl.flops()) {
      const NodeId d = nl.node(ff).fanin[0];
      const double via_ff = std::min(r.co[ff] + kSequentialCost, kScoapCap);
      if (via_ff < r.co[d]) {
        max_delta = std::max(max_delta, r.co[d] - via_ff);
        r.co[d] = via_ff;
      }
    }
    // Primary outputs stay 0 even if they also fan out elsewhere.
    for (const auto& port : nl.outputs()) r.co[port.driver] = 0.0;
    if (max_delta < kTolerance) break;
  }

  return r;
}

}  // namespace fcrit::sim
