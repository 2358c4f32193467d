#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/rtl/builder.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit::fault {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

sim::StimulusSpec spec() {
  sim::StimulusSpec s;
  s.default_profile.p1 = 0.5;
  return s;
}

TEST(Transient, CombFlipIsVisibleExactlyOneCycleWhenUnlatched) {
  // a -> inv -> y: a flipped inverter output corrupts y for one cycle and
  // leaves no state behind.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", g);
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(nl, spec(), cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(g, 5);
  EXPECT_EQ(r.affected_lanes, ~0ULL);  // flip corrupts every lane
  EXPECT_EQ(r.mismatch_cycles, 64u);   // exactly one cycle x 64 lanes
}

TEST(Transient, RegisterFlipPersistsUntilOverwritten) {
  // A held register (enable tied low after load) keeps a flipped bit
  // forever: mismatches accumulate over the remaining window.
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId d = b.input("d");
  const NodeId en = b.input("en");
  const NodeId q = b.reg_en(d, en);
  b.output("y", q);
  nl.validate();

  sim::StimulusSpec s;
  s.profiles["en"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  s.profiles["d"] = {.p1 = 0.5, .hold_cycles = 0, .hold_value = false};
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(nl, s, cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(q, 8);
  EXPECT_EQ(r.affected_lanes, ~0ULL);
  // Flip persists from cycle 8 to 31: 24 cycles x 64 lanes.
  EXPECT_EQ(r.mismatch_cycles, 24u * 64u);
}

TEST(Transient, UnobservedNodeHasNoEffect) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId orphan = nl.add_gate(CellKind::kInv, {a});
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(nl, spec(), cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(orphan, 3);
  EXPECT_EQ(r.affected_lanes, 0u);
  EXPECT_EQ(r.mismatch_cycles, 0u);
}

TEST(Transient, InjectAtCycleZeroCorruptsFromTheStart) {
  // Flip at cycle 0 on the held register: no golden history before the
  // injection exists, and the corruption must persist across the whole
  // window (cycles 0..31 = 32 cycles x 64 lanes).
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId d = b.input("d");
  const NodeId en = b.input("en");
  const NodeId q = b.reg_en(d, en);
  b.output("y", q);
  nl.validate();

  sim::StimulusSpec s;
  s.profiles["en"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  s.profiles["d"] = {.p1 = 0.5, .hold_cycles = 0, .hold_value = false};
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(nl, s, cfg);
  campaign.run_golden();
  const auto r = campaign.simulate_transient(q, 0);
  EXPECT_EQ(r.affected_lanes, ~0ULL);
  EXPECT_EQ(r.mismatch_cycles, 32u * 64u);
}

TEST(Transient, InjectAtLastCycleIsVisibleExactlyOnce) {
  // Flip on the final cycle of the window: the corrupted value reaches the
  // PO that same cycle but there is no later cycle for it to persist into,
  // so exactly one cycle x 64 lanes mismatches — on both a comb node and a
  // held register.
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId d = b.input("d");
  const NodeId en = b.input("en");
  const NodeId q = b.reg_en(d, en);
  const NodeId g = b.inv(d);
  b.output("y", q);
  b.output("z", g);
  nl.validate();

  sim::StimulusSpec s;
  s.profiles["en"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  s.profiles["d"] = {.p1 = 0.5, .hold_cycles = 0, .hold_value = false};
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(nl, s, cfg);
  campaign.run_golden();
  for (const NodeId site : {q, g}) {
    const auto r = campaign.simulate_transient(site, cfg.cycles - 1);
    EXPECT_EQ(r.affected_lanes, ~0ULL) << nl.node(site).name;
    EXPECT_EQ(r.mismatch_cycles, 64u) << nl.node(site).name;
  }
}

TEST(Transient, IdenticalUnderFrontierCampaignConfig) {
  // The frontier pass and the levelized sweep are independent SEU
  // engines; they must agree bit for bit, including at the cycle-0 and
  // last-cycle edges.
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig lev;
  lev.cycles = 48;
  lev.engine = FiEngine::kLevelized;
  CampaignConfig fr = lev;
  fr.engine = FiEngine::kFrontier;
  FaultCampaign cl(d.netlist, d.stimulus, lev);
  FaultCampaign cf(d.netlist, d.stimulus, fr);
  cl.run_golden();
  cf.run_golden();
  for (const NodeId node : fault_sites(d.netlist)) {
    if (node % 11 != 0) continue;
    for (const int cycle : {0, 23, 47}) {
      const auto rl = cl.simulate_transient(node, cycle);
      const auto rf = cf.simulate_transient(node, cycle);
      EXPECT_EQ(rl.affected_lanes, rf.affected_lanes)
          << d.netlist.node(node).name << " @" << cycle;
      EXPECT_EQ(rl.mismatch_cycles, rf.mismatch_cycles)
          << d.netlist.node(node).name << " @" << cycle;
    }
  }
}

TEST(Transient, FlipThatLoopsBackThroughAFlopKeepsToggling) {
  // q' = g, g = q ^ a, y = g: a flip of g (or of q) is captured by the
  // flop and comes back to g's own fanin on the next cycle, so it
  // persists to the end of the window in every lane. An engine that kept
  // the site forced after the flip cycle would drop it after one cycle.
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId a = b.input("a");
  const NodeId q = b.reg_placeholder();
  const NodeId g = b.xor2(q, a);
  b.connect_reg(q, g);
  b.output("y", g);
  nl.validate();

  CampaignConfig lev;
  lev.cycles = 32;
  lev.engine = FiEngine::kLevelized;
  CampaignConfig fr = lev;
  fr.engine = FiEngine::kFrontier;
  FaultCampaign cl(nl, spec(), lev);
  FaultCampaign cf(nl, spec(), fr);
  cl.run_golden();
  cf.run_golden();
  for (const NodeId site : {g, q}) {
    for (const int cycle : {0, 5, 31}) {
      const auto rl = cl.simulate_transient(site, cycle);
      const auto rf = cf.simulate_transient(site, cycle);
      const auto expected = static_cast<std::uint32_t>(32 - cycle) * 64u;
      EXPECT_EQ(rl.affected_lanes, ~0ULL)
          << nl.node(site).name << " @" << cycle;
      EXPECT_EQ(rl.mismatch_cycles, expected)
          << nl.node(site).name << " @" << cycle;
      EXPECT_EQ(rf.affected_lanes, rl.affected_lanes)
          << nl.node(site).name << " @" << cycle;
      EXPECT_EQ(rf.mismatch_cycles, rl.mismatch_cycles)
          << nl.node(site).name << " @" << cycle;
    }
  }
}

TEST(Transient, RejectsBadArguments) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_output("y", nl.add_gate(CellKind::kBuf, {a}));
  CampaignConfig cfg;
  cfg.cycles = 8;
  FaultCampaign campaign(nl, spec(), cfg);
  EXPECT_THROW(campaign.simulate_transient(1, 0), std::runtime_error);
  campaign.run_golden();
  EXPECT_THROW(campaign.simulate_transient(1, 8), std::runtime_error);
  EXPECT_THROW(campaign.simulate_transient(1, -1), std::runtime_error);
}

TEST(Transient, ConeMatchesNaive) {
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig fast;
  fast.cycles = 48;
  fast.engine = FiEngine::kLevelized;
  CampaignConfig naive = fast;
  naive.use_cone_restriction = false;
  FaultCampaign cf(d.netlist, d.stimulus, fast);
  FaultCampaign cn(d.netlist, d.stimulus, naive);
  cf.run_golden();
  cn.run_golden();
  for (const NodeId node : fault_sites(d.netlist)) {
    if (node % 13 != 0) continue;
    for (const int cycle : {0, 17, 40}) {
      const auto rf = cf.simulate_transient(node, cycle);
      const auto rn = cn.simulate_transient(node, cycle);
      EXPECT_EQ(rf.affected_lanes, rn.affected_lanes)
          << d.netlist.node(node).name << " @" << cycle;
      EXPECT_EQ(rf.mismatch_cycles, rn.mismatch_cycles);
    }
  }
}

/// The pin circuits: every built-in design plus two random circuits with
/// flops.
std::vector<designs::Design> pin_designs() {
  std::vector<designs::Design> out;
  for (const auto& name : designs::all_design_names())
    out.push_back(designs::build_design(name));
  designs::RandomCircuitConfig rc;
  rc.num_gates = 200;
  rc.num_flops = 16;
  rc.seed = 3;
  out.push_back(designs::build_random_circuit(rc));
  rc.num_gates = 120;
  rc.num_flops = 12;
  rc.seed = 17;
  out.push_back(designs::build_random_circuit(rc));
  return out;
}

/// fnv1a64 of (affected_lanes, mismatch_cycles) over `sites`, each
/// injected at the first, middle and last cycle.
std::uint64_t transient_digest(const FaultCampaign& camp,
                               const std::vector<NodeId>& sites) {
  const int cycles = camp.config().cycles;
  std::vector<std::uint64_t> words;
  for (const NodeId site : sites) {
    for (const int cycle : {0, cycles / 2, cycles - 1}) {
      const auto r = camp.simulate_transient(site, cycle);
      words.push_back(r.affected_lanes);
      words.push_back(r.mismatch_cycles);
    }
  }
  return pins::hash_bytes(std::span<const std::uint64_t>(words));
}

// Recorded on the levelized SEU sweep before transient injection moved
// onto the frontier pass; both engines must keep reproducing them.
TEST(Transient, MatchesPinnedDigests) {
  struct Pin {
    std::uint64_t digest;
    std::uint64_t criticality;
  };
  const std::map<std::string, Pin> pinned = {
      {"sdram_ctrl", {0x97b0373c08ac47faULL, 0xd2247cf3aaf4f166ULL}},
      {"or1200_if", {0xf3c435f3c5975e1bULL, 0xe99d1b24aaa26f6dULL}},
      {"or1200_icfsm", {0xa5fe12800d99f488ULL, 0xe792d42151a494b7ULL}},
      {"or1200_genpc", {0x4f31a0c5117052b6ULL, 0x48d1624bb618ad5aULL}},
      {"ee_zonal", {0xe17c4d6ebfaab313ULL, 0x8a27334af8eaeaa0ULL}},
      {"random_3", {0xa0fa1fb8f8a41f9eULL, 0xd4497f6d8faf857cULL}},
      {"random_17", {0xd30ff4dfe315c845ULL, 0x0f65d9605ad6d0c7ULL}},
  };
  for (const auto& d : pin_designs()) {
    const auto all_sites = fault_sites(d.netlist);
    const std::size_t stride = std::max<std::size_t>(1, all_sites.size() / 96);
    std::vector<NodeId> sites;
    for (std::size_t i = 0; i < all_sites.size(); i += stride)
      sites.push_back(all_sites[i]);
    const auto it = pinned.find(d.name);
    ASSERT_NE(it, pinned.end()) << d.name;
    for (const FiEngine engine : {FiEngine::kFrontier, FiEngine::kLevelized}) {
      CampaignConfig cfg;
      cfg.cycles = 64;
      cfg.engine = engine;
      FaultCampaign camp(d.netlist, d.stimulus, cfg);
      camp.run_golden();
      const std::uint64_t got = transient_digest(camp, sites);
      const auto crit = camp.transient_criticality(sites, {7, 40});
      const std::uint64_t got_crit =
          pins::hash_bytes(std::span<const double>(crit));
      const char* which =
          engine == FiEngine::kFrontier ? "frontier" : "levelized";
      EXPECT_EQ(got, it->second.digest)
          << d.name << " " << which << ": got 0x" << std::hex << got;
      EXPECT_EQ(got_crit, it->second.criticality)
          << d.name << " " << which << ": got 0x" << std::hex << got_crit;
    }
  }
}

TEST(Transient, CriticalityRarelyExceedsStuckAtDetection) {
  // A one-cycle flip locally equals the stuck-at of the opposite polarity
  // during that cycle, so SEU criticality should (almost) never exceed the
  // union detected fraction of the node's two permanent faults. Permanent
  // faults corrupt state from cycle 0, so exact dominance is not a theorem
  // — allow slack and require the bound in aggregate.
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig cfg;
  cfg.cycles = 64;
  FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  const auto permanent = campaign.run_all();

  std::vector<NodeId> nodes;
  for (const NodeId s : fault_sites(d.netlist))
    if (s % 7 == 0) nodes.push_back(s);
  const auto seu = campaign.transient_criticality(nodes, {8, 24, 48});

  std::map<NodeId, std::uint64_t> detected_union;
  for (const auto& fr : permanent.faults)
    detected_union[fr.fault.node] |= fr.detected_lanes;
  int violations = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double bound =
        std::popcount(detected_union[nodes[i]]) / 64.0;
    if (seu[i] > bound + 0.05) ++violations;
  }
  EXPECT_LE(violations, static_cast<int>(nodes.size()) / 10);
}

TEST(Transient, CriticalityVectorAligns) {
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const std::vector<NodeId> nodes{fault_sites(d.netlist)[0],
                                  fault_sites(d.netlist)[1]};
  const auto c = campaign.transient_criticality(nodes, {4, 20});
  ASSERT_EQ(c.size(), 2u);
  for (const double v : c) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_THROW(campaign.transient_criticality(nodes, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace fcrit::fault
