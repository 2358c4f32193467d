#include "src/netlist/transform.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/lint/lint.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::netlist {
namespace {

TEST(Sweep, RemovesDanglingLogic) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId used = nl.add_gate(CellKind::kInv, {a});
  const NodeId dead1 = nl.add_gate(CellKind::kBuf, {a});
  const NodeId dead2 = nl.add_gate(CellKind::kInv, {dead1});
  nl.add_output("y", used);

  const auto result = sweep(nl);
  EXPECT_EQ(result.dropped(), 2u);
  EXPECT_EQ(result.node_map[dead1], kNoNode);
  EXPECT_EQ(result.node_map[dead2], kNoNode);
  EXPECT_NE(result.node_map[used], kNoNode);
  EXPECT_EQ(result.netlist.num_gates(), 1u);
  EXPECT_EQ(result.netlist.outputs().size(), 1u);
}

TEST(Sweep, KeepsUnusedInputs) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_input("unused");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  const auto result = sweep(nl);
  EXPECT_EQ(result.netlist.inputs().size(), 2u);
}

TEST(Sweep, CrossesFlipFlops) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  const NodeId ff = nl.add_gate(CellKind::kDff, {g});
  nl.add_output("q", ff);
  const auto result = sweep(nl);
  EXPECT_EQ(result.dropped(), 0u);
}

TEST(Sweep, PreservesNamesAndKinds) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kNand2, {a, a}, "my_gate");
  nl.add_gate(CellKind::kBuf, {a});  // dead
  nl.add_output("y", g);
  const auto result = sweep(nl);
  const auto found = result.netlist.find("my_gate");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(result.netlist.kind(*found), CellKind::kNand2);
}

TEST(Sweep, IsBehaviourPreservingOnRealDesign) {
  auto d = designs::build_or1200_icfsm();
  const auto result = sweep(d.netlist);

  sim::PackedSimulator sim_a(d.netlist);
  sim::PackedSimulator sim_b(result.netlist);
  sim::StimulusGenerator stim(d.netlist, d.stimulus, 11);
  std::vector<std::uint64_t> words;
  for (int t = 0; t < 64; ++t) {
    stim.next_cycle(words);
    sim_a.eval_comb(words);
    sim_b.eval_comb(words);  // input order preserved by rebuild
    for (std::size_t o = 0; o < d.netlist.outputs().size(); ++o)
      EXPECT_EQ(sim_a.output_word(o), sim_b.output_word(o)) << t;
    sim_a.clock();
    sim_b.clock();
  }
}

// sweep and lint answer one question, "does this node reach an output?":
// sweep drops exactly the nodes lint warns about as dead-gate or
// dead-cone, plus the constants that feed nothing else it keeps.
TEST(Sweep, DropsExactlyWhatLintCallsDead) {
  std::vector<designs::Design> cases;
  for (const auto& name : designs::all_design_names())
    cases.push_back(designs::build_design(name));
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    cases.push_back(designs::build_random_circuit(
        {.num_inputs = 6, .num_gates = 60 + 25 * static_cast<int>(seed),
         .num_flops = static_cast<int>(seed % 3) * 8, .num_outputs = 3,
         .reuse_bias = seed % 2 == 0 ? 0.8 : 0.3, .seed = seed}));
  std::size_t total_dropped = 0;
  for (const designs::Design& d : cases) {
    const Netlist& nl = d.netlist;
    std::set<NodeId> dead;
    for (const lint::Diagnostic& diag : lint::lint_netlist(nl).diagnostics)
      if ((diag.rule_id == "dead-gate" || diag.rule_id == "dead-cone") &&
          diag.severity == lint::Severity::kWarning)
        dead.insert(diag.node);
    std::set<NodeId> expected = dead;
    std::set<NodeId> drivers;
    for (const auto& port : nl.outputs()) drivers.insert(port.driver);
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      if (nl.kind(id) != CellKind::kConst0 && nl.kind(id) != CellKind::kConst1)
        continue;
      bool used = drivers.contains(id);
      for (const NodeId c : nl.fanouts(id)) used |= !dead.contains(c);
      if (!used) expected.insert(id);
    }
    const auto result = sweep(nl);
    std::set<NodeId> dropped;
    for (NodeId id = 0; id < nl.num_nodes(); ++id)
      if (result.node_map[id] == kNoNode) dropped.insert(id);
    EXPECT_EQ(dropped, expected) << d.name;
    total_dropped += dropped.size();
  }
  EXPECT_GT(total_dropped, 0u);
}

}  // namespace
}  // namespace fcrit::netlist
