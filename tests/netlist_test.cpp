#include "src/netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fcrit::netlist {
namespace {

TEST(Netlist, AddInputAndGate) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kNand2, {a, b});
  EXPECT_EQ(nl.num_nodes(), 3u);
  EXPECT_EQ(nl.kind(g), CellKind::kNand2);
  ASSERT_EQ(nl.fanins(g).size(), 2u);
  EXPECT_EQ(nl.fanins(g)[0], a);
  EXPECT_EQ(nl.fanins(g)[1], b);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.num_gates(), 1u);
}

TEST(Netlist, AutoNamesFollowLibraryConvention) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  EXPECT_EQ(nl.node(g).name, "IV_U" + std::to_string(g));
}

TEST(Netlist, ExplicitInstanceNamePreserved) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "my_inv");
  EXPECT_EQ(nl.node(g).name, "my_inv");
}

TEST(Netlist, ConstNodesAreDeduplicated) {
  Netlist nl;
  EXPECT_EQ(nl.add_const(false), nl.add_const(false));
  EXPECT_EQ(nl.add_const(true), nl.add_const(true));
  EXPECT_NE(nl.add_const(false), nl.add_const(true));
  EXPECT_EQ(nl.num_nodes(), 2u);
}

TEST(Netlist, ArityMismatchThrows) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::kNand2, {a}), std::runtime_error);
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {a, a}), std::runtime_error);
}

TEST(Netlist, DanglingFaninThrows) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {static_cast<NodeId>(99)}),
               std::runtime_error);
  (void)a;
}

TEST(Netlist, FanoutsComputed) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(CellKind::kAnd2, {a, b});
  const NodeId g2 = nl.add_gate(CellKind::kInv, {a});
  const NodeId g3 = nl.add_gate(CellKind::kOr2, {g1, g2});

  const auto fo_a = nl.fanouts(a);
  EXPECT_EQ(fo_a.size(), 2u);
  EXPECT_EQ(nl.fanouts(b).size(), 1u);
  EXPECT_EQ(nl.fanouts(g1).size(), 1u);
  EXPECT_EQ(nl.fanouts(g1)[0], g3);
  EXPECT_TRUE(nl.fanouts(g3).empty());
}

TEST(Netlist, FanoutCacheInvalidatedByConstruction) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::kInv, {a});
  EXPECT_EQ(nl.fanouts(a).size(), 1u);
  const NodeId g2 = nl.add_gate(CellKind::kBuf, {a});
  EXPECT_EQ(nl.fanouts(a).size(), 2u);
  (void)g1;
  (void)g2;
}

TEST(Netlist, NumConnectionsIsFaninPlusFanout) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, b});
  nl.add_gate(CellKind::kInv, {g});
  nl.add_gate(CellKind::kBuf, {g});
  EXPECT_EQ(nl.num_connections(g), 4u);  // 2 fanins + 2 fanouts
  EXPECT_EQ(nl.num_connections(a), 1u);
}

TEST(Netlist, FindByName) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "u_inv");
  EXPECT_EQ(nl.find("a"), a);
  EXPECT_EQ(nl.find("u_inv"), g);
  EXPECT_FALSE(nl.find("nope").has_value());
}

TEST(Netlist, OutputsRegistered) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", g);
  ASSERT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.outputs()[0].name, "y");
  EXPECT_EQ(nl.outputs()[0].driver, g);
}

TEST(Netlist, FlopsTracked) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId f1 = nl.add_gate(CellKind::kDff, {a});
  const NodeId f2 = nl.add_gate(CellKind::kDff, {f1});
  EXPECT_EQ(nl.flops(), (std::vector<NodeId>{f1, f2}));
}

TEST(Netlist, SetFaninPatchesPlaceholder) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate(CellKind::kDff, {kNoNode});
  EXPECT_THROW(nl.validate(), std::runtime_error);  // unresolved placeholder
  nl.set_fanin(ff, 0, a);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.fanins(ff)[0], a);
}

TEST(Netlist, FanoutsSkipUnresolvedFanins) {
  // add_gate accepts kNoNode placeholders; the fanout CSR must count only
  // the fanins that name a node, and list consumers in ascending id.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::kAnd2, {a, kNoNode});
  const NodeId g2 = nl.add_gate(CellKind::kOr2, {kNoNode, a});
  ASSERT_EQ(nl.fanouts(a).size(), 2u);
  EXPECT_EQ(nl.fanouts(a)[0], g1);
  EXPECT_EQ(nl.fanouts(a)[1], g2);
  EXPECT_TRUE(nl.fanouts(g1).empty());
  EXPECT_EQ(nl.num_connections(g2), 2u);  // 2 fanin slots + 0 fanouts
  nl.set_fanin(g2, 0, g1);
  ASSERT_EQ(nl.fanouts(g1).size(), 1u);
  EXPECT_EQ(nl.fanouts(g1)[0], g2);
}

TEST(Netlist, SetFaninRangeChecks) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  EXPECT_THROW(nl.set_fanin(g, 1, a), std::runtime_error);   // bad slot
  EXPECT_THROW(nl.set_fanin(g, 0, 999), std::runtime_error); // bad target
  EXPECT_THROW(nl.set_fanin(999, 0, a), std::runtime_error); // bad node
}

TEST(Netlist, ValidateChecksOutputDrivers) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_output("y", a);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_THROW(nl.add_output("z", 42), std::runtime_error);
}

TEST(Netlist, ValidateAggregatesAllViolations) {
  // Two distinct defects — both must appear in the one exception message
  // instead of the first aborting the check.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_gate(CellKind::kInv, {kNoNode}, "u_open1");
  nl.add_gate(CellKind::kAnd2, {a, kNoNode}, "u_open2");
  try {
    nl.validate();
    FAIL() << "expected validate to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 violation(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("u_open1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("u_open2"), std::string::npos) << msg;
  }
}

TEST(Netlist, NumEdgesCountsFanins) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.add_gate(CellKind::kAnd2, {a, b});
  nl.add_gate(CellKind::kInv, {a});
  EXPECT_EQ(nl.num_edges(), 3u);
}

}  // namespace
}  // namespace fcrit::netlist
