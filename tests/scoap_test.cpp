#include "src/sim/scoap.hpp"

#include <gtest/gtest.h>

#include "src/designs/designs.hpp"
#include "src/rtl/builder.hpp"

namespace fcrit::sim {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

TEST(Scoap, PrimaryInputsAreUnitControllable) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[a], 1.0);
  EXPECT_DOUBLE_EQ(r.cc1[a], 1.0);
}

TEST(Scoap, ClassicAndGateFormulas) {
  // Goldstein: CC1(AND) = CC1(a)+CC1(b)+1, CC0(AND) = min(CC0)+1.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, b});
  nl.add_output("y", g);
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc1[g], 3.0);  // 1 + 1 + 1
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);  // min(1,1) + 1
}

TEST(Scoap, ClassicOrNandFormulas) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g_or = nl.add_gate(CellKind::kOr2, {a, b});
  const NodeId g_nand = nl.add_gate(CellKind::kNand2, {a, b});
  nl.add_output("y1", g_or);
  nl.add_output("y2", g_nand);
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[g_or], 3.0);
  EXPECT_DOUBLE_EQ(r.cc1[g_or], 2.0);
  EXPECT_DOUBLE_EQ(r.cc0[g_nand], 3.0);  // both inputs 1
  EXPECT_DOUBLE_EQ(r.cc1[g_nand], 2.0);  // one input 0
}

TEST(Scoap, XorNeedsBothInputsEitherWay) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kXor2, {a, b});
  nl.add_output("y", g);
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[g], 3.0);
  EXPECT_DOUBLE_EQ(r.cc1[g], 3.0);
}

TEST(Scoap, ObservabilityZeroAtOutputs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", g);
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.co[g], 0.0);
  // Observing a requires propagating through the inverter: CO = 0 + 1.
  EXPECT_DOUBLE_EQ(r.co[a], 1.0);
}

TEST(Scoap, ObservabilityThroughAndNeedsSideInputAtOne) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, b});
  nl.add_output("y", g);
  const auto r = compute_scoap(nl);
  // CO(a) = CO(g) + CC1(b) + 1 = 0 + 1 + 1.
  EXPECT_DOUBLE_EQ(r.co[a], 2.0);
}

TEST(Scoap, UnobservableLogicSaturates) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId orphan = nl.add_gate(CellKind::kInv, {a});
  const NodeId seen = nl.add_gate(CellKind::kBuf, {a});
  nl.add_output("y", seen);
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.co[orphan], kScoapCap);
  EXPECT_LT(r.co[seen], kScoapCap);
}

TEST(Scoap, ConstantsAreUncontrollableToOpposite) {
  Netlist nl;
  nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId c1 = nl.add_const(true);
  nl.add_output("y", nl.add_gate(CellKind::kAnd2, {c0, c1}));
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[c0], 1.0);
  EXPECT_DOUBLE_EQ(r.cc1[c0], kScoapCap);
  EXPECT_DOUBLE_EQ(r.cc1[c1], 1.0);
  EXPECT_DOUBLE_EQ(r.cc0[c1], kScoapCap);
}

TEST(Scoap, SequentialDepthAddsCost) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId f1 = nl.add_gate(CellKind::kDff, {a});
  const NodeId f2 = nl.add_gate(CellKind::kDff, {f1});
  nl.add_output("y", f2);
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc1[f1], 2.0);  // 1 + seq cost
  EXPECT_DOUBLE_EQ(r.cc1[f2], 3.0);
  EXPECT_DOUBLE_EQ(r.co[f2], 0.0);
  EXPECT_DOUBLE_EQ(r.co[f1], 1.0);  // one DFF crossing
  EXPECT_DOUBLE_EQ(r.co[a], 2.0);
}

TEST(Scoap, ConvergesOnSequentialLoops) {
  // Toggle flop: values must stay finite and stable.
  Netlist nl;
  const NodeId ff = nl.add_gate(CellKind::kDff, {netlist::kNoNode});
  const NodeId inv = nl.add_gate(CellKind::kInv, {ff});
  nl.set_fanin(ff, 0, inv);
  nl.add_output("q", ff);
  const auto r = compute_scoap(nl);
  EXPECT_GE(r.cc0[ff], 1.0);
  EXPECT_GE(r.cc1[ff], 1.0);
  EXPECT_DOUBLE_EQ(r.co[ff], 0.0);
}

class ScoapDesignTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScoapDesignTest, ValuesAreSaneOnRealDesigns) {
  const auto d = designs::build_design(GetParam());
  const auto r = compute_scoap(d.netlist);
  std::size_t observable = 0;
  for (NodeId id = 0; id < d.netlist.num_nodes(); ++id) {
    EXPECT_GE(r.cc0[id], 1.0);
    EXPECT_GE(r.cc1[id], 1.0);
    EXPECT_GE(r.co[id], 0.0);
    if (r.co[id] < kScoapCap) ++observable;
  }
  // The vast majority of a working design must be observable (a few
  // percent of dead builder intermediates is normal; sweep() removes it).
  EXPECT_GT(static_cast<double>(observable) /
                static_cast<double>(d.netlist.num_nodes()),
            0.85);
}

INSTANTIATE_TEST_SUITE_P(Designs, ScoapDesignTest,
                         ::testing::Values("sdram_ctrl", "or1200_icfsm"));

}  // namespace
}  // namespace fcrit::sim
