#include "src/sim/probability.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/rtl/builder.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit::sim {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

TEST(AnalyticProbability, BasicGatesWithHalfInputs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g_and = nl.add_gate(CellKind::kAnd2, {a, b});
  const NodeId g_or = nl.add_gate(CellKind::kOr2, {a, b});
  const NodeId g_xor = nl.add_gate(CellKind::kXor2, {a, b});
  const NodeId g_inv = nl.add_gate(CellKind::kInv, {a});
  const auto p = estimate_p1_analytic(nl, {0.5, 0.5});
  EXPECT_NEAR(p[g_and], 0.25, 1e-9);
  EXPECT_NEAR(p[g_or], 0.75, 1e-9);
  EXPECT_NEAR(p[g_xor], 0.5, 1e-9);
  EXPECT_NEAR(p[g_inv], 0.5, 1e-9);
}

TEST(AnalyticProbability, ConstantsAndBiasedInputs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c1 = nl.add_const(true);
  const NodeId c0 = nl.add_const(false);
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, c1});
  const NodeId h = nl.add_gate(CellKind::kOr2, {a, c0});
  const auto p = estimate_p1_analytic(nl, {0.3});
  EXPECT_NEAR(p[c1], 1.0, 1e-12);
  EXPECT_NEAR(p[c0], 0.0, 1e-12);
  EXPECT_NEAR(p[g], 0.3, 1e-9);
  EXPECT_NEAR(p[h], 0.3, 1e-9);
}

TEST(AnalyticProbability, SequentialFixpointConverges) {
  // Toggle flop: q' = !q -> steady-state P1 = 0.5.
  Netlist nl;
  const NodeId ff = nl.add_gate(CellKind::kDff, {netlist::kNoNode});
  const NodeId inv = nl.add_gate(CellKind::kInv, {ff});
  nl.set_fanin(ff, 0, inv);
  const auto p = estimate_p1_analytic(nl, {});
  EXPECT_NEAR(p[ff], 0.5, 1e-4);
}

TEST(AnalyticProbability, WrongInputSizeThrows) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(estimate_p1_analytic(nl, {0.5, 0.5}), std::runtime_error);
}

TEST(SimulationProbability, MatchesAnalyticOnCombinationalTree) {
  // A true tree (every signal consumed once): the analytic estimator's
  // independence assumption is exact, so simulation must agree.
  Netlist nl;
  rtl::Builder b(nl, 3);
  const auto bus = b.input_bus("x", 7);
  const NodeId g1 = b.and2(bus[0], bus[1]);
  const NodeId g2 = b.or2(bus[2], bus[3]);
  const NodeId g3 = b.xor2(g1, g2);
  const NodeId g4 = b.nand2(g3, bus[4]);
  b.output("y", b.mux(g4, bus[5], bus[6]));
  nl.validate();

  StimulusSpec spec;
  spec.default_profile.p1 = 0.5;
  spec.activity_min = 1.0;  // every cycle fresh random: i.i.d. sampling
  spec.activity_max = 1.0;
  spec.p1_scale_min = 1.0;
  spec.p1_scale_max = 1.0;
  const auto stats = estimate_by_simulation(nl, spec, 17, 4000);
  const auto analytic =
      estimate_p1_analytic(nl, std::vector<double>(7, 0.5));
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    EXPECT_NEAR(stats.p1[id], analytic[id], 0.02)
        << "node " << nl.node(id).name;
  }
}

TEST(SimulationProbability, TransitionProbabilityOfIidInput) {
  // An input re-randomized each cycle with p1=0.5 toggles with prob 0.5.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_gate(CellKind::kBuf, {a});
  StimulusSpec spec;
  spec.activity_min = 1.0;
  spec.activity_max = 1.0;
  spec.p1_scale_min = 1.0;
  spec.p1_scale_max = 1.0;
  const auto stats = estimate_by_simulation(nl, spec, 19, 4000);
  EXPECT_NEAR(stats.p_transition[a], 0.5, 0.02);
  EXPECT_NEAR(stats.p1[a], 0.5, 0.02);
}

TEST(SimulationProbability, ConstantsNeverTransition) {
  Netlist nl;
  nl.add_input("a");
  const NodeId c1 = nl.add_const(true);
  StimulusSpec spec;
  const auto stats = estimate_by_simulation(nl, spec, 23, 200);
  EXPECT_EQ(stats.p1[c1], 1.0);
  EXPECT_EQ(stats.p_transition[c1], 0.0);
}

TEST(SimulationProbability, InvalidCyclesThrow) {
  Netlist nl;
  nl.add_input("a");
  StimulusSpec spec;
  EXPECT_THROW(estimate_by_simulation(nl, spec, 1, 0), std::runtime_error);
  EXPECT_THROW(estimate_by_simulation(nl, spec, 1, -5), std::runtime_error);
  // cycles + kStatsSkipCycles must fit in an int.
  const int max = std::numeric_limits<int>::max();
  EXPECT_THROW(estimate_by_simulation(nl, spec, 1, max), std::runtime_error);
  EXPECT_THROW(
      estimate_by_simulation(nl, spec, 1, max - kStatsSkipCycles + 1),
      std::runtime_error);
  EXPECT_NO_THROW(estimate_by_simulation(nl, spec, 1, 8));
}

TEST(AnalyticActivity, ToggleOfIidInputs) {
  // An i.i.d. Bernoulli(p) input toggles with probability 2 p (1-p); an
  // XOR of two such inputs toggles with the XOR-of-independent rate.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kXor2, {a, b});
  nl.add_output("y", g);
  const double pa = 0.3, pb = 0.5;
  const double ta = 2 * pa * (1 - pa);
  const double tb = 2 * pb * (1 - pb);
  const auto act = estimate_activity_analytic(nl, {pa, pb}, {ta, tb});
  EXPECT_NEAR(act.p1[g], pa * (1 - pb) + pb * (1 - pa), 1e-9);
  // XOR toggles iff exactly one input toggles.
  EXPECT_NEAR(act.p_transition[g], ta * (1 - tb) + tb * (1 - ta), 1e-9);
}

TEST(AnalyticActivity, InverterPreservesToggleRate) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", g);
  const auto act = estimate_activity_analytic(nl, {0.7}, {0.2});
  EXPECT_NEAR(act.p_transition[g], 0.2, 1e-9);
  EXPECT_NEAR(act.p1[g], 0.3, 1e-9);
}

TEST(AnalyticActivity, ConstantsNeverToggle) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c1 = nl.add_const(true);
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, c1});
  nl.add_output("y", g);
  const auto act = estimate_activity_analytic(nl, {0.5}, {0.4});
  EXPECT_NEAR(act.p_transition[c1], 0.0, 1e-12);
  EXPECT_NEAR(act.p_transition[g], 0.4, 1e-9);  // passes a through
}

TEST(AnalyticActivity, MatchesSimulationOnTree) {
  Netlist nl;
  rtl::Builder b(nl, 4);
  const auto bus = b.input_bus("x", 5);
  const NodeId g1 = b.and2(bus[0], bus[1]);
  const NodeId g2 = b.or2(bus[2], bus[3]);
  const NodeId g3 = b.xor2(g1, g2);
  b.output("y", b.nand2(g3, bus[4]));
  nl.validate();

  StimulusSpec spec;
  spec.default_profile.p1 = 0.5;
  spec.activity_min = 1.0;  // i.i.d. per cycle
  spec.activity_max = 1.0;
  spec.p1_scale_min = 1.0;
  spec.p1_scale_max = 1.0;
  const auto stats = estimate_by_simulation(nl, spec, 31, 6000);
  const auto act = estimate_activity_analytic(
      nl, std::vector<double>(5, 0.5), std::vector<double>(5, 0.5));
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    EXPECT_NEAR(act.p1[id], stats.p1[id], 0.02) << nl.node(id).name;
    EXPECT_NEAR(act.p_transition[id], stats.p_transition[id], 0.02)
        << nl.node(id).name;
  }
}

TEST(AnalyticActivity, DffPropagatesStationaryStats) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate(CellKind::kDff, {a});
  nl.add_output("q", ff);
  const auto act = estimate_activity_analytic(nl, {0.4}, {0.3});
  EXPECT_NEAR(act.p1[ff], 0.4, 1e-9);
  EXPECT_NEAR(act.p_transition[ff], 0.3, 1e-9);
}

TEST(AnalyticActivity, InputSizeMismatchThrows) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(estimate_activity_analytic(nl, {0.5}, {0.5, 0.5}),
               std::runtime_error);
}

TEST(SimulationProbability, P0PlusP1IsOneByConstruction) {
  // The feature extractor derives P0 = 1 - P1; verify P1 is a probability.
  Netlist nl;
  rtl::Builder b(nl, 5);
  const auto bus = b.input_bus("x", 4);
  b.output("y", b.and_n(bus));
  StimulusSpec spec;
  const auto stats = estimate_by_simulation(nl, spec, 29, 500);
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    EXPECT_GE(stats.p1[id], 0.0);
    EXPECT_LE(stats.p1[id], 1.0);
    EXPECT_GE(stats.p_transition[id], 0.0);
    EXPECT_LE(stats.p_transition[id], 1.0);
  }
}

// The §3.1 statistics the score path replays: fnv1a64 of the p1 bytes
// followed by the p_transition bytes at 512 cycles, seed 99, for every
// built-in design under its own stimulus and for a generated circuit that
// uses every combinational kind.
TEST(SimulationProbability, StatsMatchPinnedHash) {
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"sdram_ctrl", 0x865082badf892578ULL},
      {"or1200_if", 0x7a879bb39a89bb9eULL},
      {"or1200_icfsm", 0x2a82344271fa9247ULL},
      {"or1200_genpc", 0x201757b81a1a34d8ULL},
      {"ee_zonal", 0x27043c59d17e1e15ULL},
      {"random", 0xc81c181e162279bdULL},
  };
  for (const auto& [name, pinned] : cases) {
    const std::string label = name;
    const designs::Design d =
        label == "random"
            ? designs::build_random_circuit({.num_inputs = 32,
                                             .num_gates = 1500,
                                             .num_flops = 64,
                                             .num_outputs = 16,
                                             .seed = 3})
            : designs::build_design(label);
    const SignalStats stats = estimate_by_simulation(d.netlist, d.stimulus,
                                                     99, 512);
    std::vector<double> bytes = stats.p1;
    bytes.insert(bytes.end(), stats.p_transition.begin(),
                 stats.p_transition.end());
    const std::uint64_t got =
        pins::hash_bytes(std::span<const double>(bytes));
    EXPECT_EQ(got, pinned) << label << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace fcrit::sim
