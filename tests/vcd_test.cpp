#include "src/sim/vcd.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/designs/designs.hpp"

namespace fcrit::sim {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

TEST(Vcd, HeaderContainsDeclarations) {
  Netlist nl("dut");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "u_inv");
  nl.add_output("y", g);
  PackedSimulator sim(nl);
  std::ostringstream os;
  VcdWriter vcd(os, sim, {a, g}, /*lane=*/0);
  const std::string text = os.str();
  EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module dut $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! a $end"), std::string::npos);
  EXPECT_NE(text.find("u_inv"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, EmitsOnlyValueChanges) {
  Netlist nl("dut");
  const NodeId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  PackedSimulator sim(nl);
  std::ostringstream os;
  VcdWriter vcd(os, sim, {a}, 0);

  // a: 1, 1, 0 across three cycles -> changes at t0 and t2 only.
  const std::uint64_t seq[3] = {1, 1, 0};
  for (int t = 0; t < 3; ++t) {
    sim.eval_comb(std::vector<std::uint64_t>{seq[t]});
    vcd.sample(static_cast<std::uint64_t>(t));
    sim.clock();
  }
  const std::string text = os.str();
  EXPECT_NE(text.find("#0\n1!"), std::string::npos);
  EXPECT_EQ(text.find("#1"), std::string::npos);  // no change at t1
  EXPECT_NE(text.find("#2\n0!"), std::string::npos);
}

TEST(Vcd, WatchesTheRequestedLane) {
  Netlist nl("dut");
  const NodeId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  PackedSimulator sim(nl);
  std::ostringstream os;
  VcdWriter vcd(os, sim, {a}, /*lane=*/3);
  sim.eval_comb(std::vector<std::uint64_t>{0b1000});  // only lane 3 high
  vcd.sample(0);
  EXPECT_NE(os.str().find("1!"), std::string::npos);
}

TEST(Vcd, RejectsBadArguments) {
  Netlist nl("dut");
  const NodeId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  PackedSimulator sim(nl);
  std::ostringstream os;
  EXPECT_THROW(VcdWriter(os, sim, {a}, -1), std::runtime_error);
  EXPECT_THROW(VcdWriter(os, sim, {a}, 64), std::runtime_error);
  EXPECT_THROW(VcdWriter(os, sim, {999}, 0), std::runtime_error);
}

TEST(Vcd, DumpVcdRefusesFewerThanOneCycle) {
  const auto d = designs::build_or1200_icfsm();
  for (const int cycles : {0, -1}) {
    std::ostringstream os;
    EXPECT_THROW(dump_vcd(d.netlist, d.stimulus, 1, cycles, 0, os),
                 std::runtime_error)
        << cycles;
    EXPECT_TRUE(os.str().empty()) << cycles;
  }
}

TEST(Vcd, IdCodesStayUniqueBeyond94Signals) {
  // 100 signals exercise the multi-character identifier path.
  Netlist nl("wide");
  std::vector<NodeId> watch;
  const NodeId a = nl.add_input("a");
  watch.push_back(a);
  for (int i = 0; i < 99; ++i)
    watch.push_back(nl.add_gate(CellKind::kBuf, {a}));
  PackedSimulator sim(nl);
  std::ostringstream os;
  VcdWriter vcd(os, sim, watch, 0);
  EXPECT_EQ(vcd.num_signals(), 100u);
  // Count $var lines == 100.
  std::size_t vars = 0, pos = 0;
  const std::string text = os.str();
  while ((pos = text.find("$var", pos)) != std::string::npos) {
    ++vars;
    ++pos;
  }
  EXPECT_EQ(vars, 100u);
}

TEST(Vcd, DumpVcdCoversDesignPorts) {
  const auto d = designs::build_or1200_icfsm();
  std::ostringstream os;
  dump_vcd(d.netlist, d.stimulus, 3, 32, 5, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("icqmem_cycstb"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
  // Some activity must occur over 32 cycles.
  EXPECT_NE(text.find("#1"), std::string::npos);
}

}  // namespace
}  // namespace fcrit::sim
