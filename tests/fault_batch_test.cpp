// Property tests for the event-driven frontier engine: every way of
// cutting the stuck-at universe into campaign runs — singletons, one run
// over the whole universe, random partitions — with or without
// collapse-equivalence sharing, at any thread count, must produce
// FaultResults byte-identical to the original levelized one-at-a-time
// simulation.
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/designs/random_circuit.hpp"
#include "src/fault/collapse.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/rtl/builder.hpp"

namespace fcrit::fault {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

sim::StimulusSpec default_spec() {
  sim::StimulusSpec spec;
  spec.default_profile.p1 = 0.5;
  return spec;
}

/// 4-bit counter with enable: heavy cone overlap (every bit's fault cone
/// reaches the shared carry chain), sequential feedback through DFFs.
struct CounterCircuit {
  Netlist nl;
  CounterCircuit() {
    rtl::Builder b(nl, 1);
    const NodeId en = b.input("en");
    rtl::Bus cnt = b.reg_placeholder_bus(4);
    const rtl::Bus inc = b.increment(cnt);
    b.connect_reg_bus(cnt, b.mux_bus(cnt, inc, en));
    b.output_bus("q", cnt);
    nl.validate();
  }
};

/// Two independent XOR/AND islands fed by constants and inputs: disjoint
/// cones plus gates whose fanins are constant nodes.
struct ConstIslandsCircuit {
  Netlist nl;
  ConstIslandsCircuit() {
    rtl::Builder b(nl, 1);
    const NodeId a = b.input("a");
    const NodeId bb = b.input("b");
    const NodeId one = b.const1();
    const NodeId zero = b.const0();
    const NodeId x1 = b.xor2(a, one);    // island 1: const fanin
    const NodeId q1 = b.dff(x1);
    b.output("o1", b.and2(q1, a));
    const NodeId x2 = b.or2(bb, zero);   // island 2: const fanin
    const NodeId q2 = b.dff(x2);
    b.output("o2", b.xor2(q2, bb));
    nl.validate();
  }
};

void expect_same_result(const FaultResult& a, const FaultResult& b,
                        const char* what) {
  EXPECT_EQ(a.fault.node, b.fault.node) << what;
  EXPECT_EQ(a.fault.stuck_value, b.fault.stuck_value) << what;
  EXPECT_EQ(a.dangerous_lanes, b.dangerous_lanes)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.detected_lanes, b.detected_lanes)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.mismatch_cycles, b.mismatch_cycles)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.first_detect_cycle, b.first_detect_cycle)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
  EXPECT_EQ(a.cone_size, b.cone_size)
      << what << " fault node " << a.fault.node << '/' << a.fault.stuck_value;
}

/// One-at-a-time levelized reference over the same campaign.
std::vector<FaultResult> levelized_reference(const Netlist& nl,
                                             CampaignConfig cfg,
                                             const std::vector<Fault>& faults) {
  cfg.engine = FiEngine::kLevelized;
  cfg.use_cone_restriction = true;
  FaultCampaign camp(nl, default_spec(), cfg);
  camp.run_golden();
  std::vector<FaultResult> out;
  out.reserve(faults.size());
  for (const Fault& f : faults) out.push_back(camp.simulate_fault(f));
  return out;
}

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 7;
  return cfg;
}

class BatchPartitionTest : public ::testing::Test {
 protected:
  /// Check every partition scheme of `faults` on `nl` against the
  /// levelized one-at-a-time reference.
  void check_circuit(const Netlist& nl, CampaignConfig cfg) {
    const std::vector<Fault> faults = full_fault_list(nl);
    ASSERT_FALSE(faults.empty());
    const std::vector<FaultResult> ref = levelized_reference(nl, cfg, faults);

    cfg.engine = FiEngine::kFrontier;
    FaultCampaign camp(nl, default_spec(), cfg);
    camp.run_golden();

    // Singletons.
    for (std::size_t i = 0; i < faults.size(); ++i)
      expect_same_result(camp.simulate_fault(faults[i]), ref[i], "single");

    // One run over the whole (heavily overlapping) universe.
    const auto whole = camp.run(faults).faults;
    ASSERT_EQ(whole.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      expect_same_result(whole[i], ref[i], "whole-universe");

    // Random partitions (seeded): concatenation of per-part results must
    // equal the reference regardless of how the universe is cut.
    std::mt19937_64 rng(99);
    for (int round = 0; round < 3; ++round) {
      std::vector<std::size_t> order(faults.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      std::size_t pos = 0;
      while (pos < order.size()) {
        const std::size_t take = 1 + rng() % 7;
        std::vector<Fault> part;
        std::vector<std::size_t> part_idx;
        for (std::size_t j = pos; j < std::min(pos + take, order.size()); ++j) {
          part.push_back(faults[order[j]]);
          part_idx.push_back(order[j]);
        }
        const auto got = camp.run(part).faults;
        for (std::size_t j = 0; j < part.size(); ++j)
          expect_same_result(got[j], ref[part_idx[j]], "random-partition");
        pos += take;
      }
    }
  }
};

TEST_F(BatchPartitionTest, OverlappingConesOnCounter) {
  CounterCircuit c;
  check_circuit(c.nl, small_config());
}

TEST_F(BatchPartitionTest, ConstantNodesAndDisjointIslands) {
  ConstIslandsCircuit c;
  check_circuit(c.nl, small_config());
}

TEST_F(BatchPartitionTest, RandomCircuits) {
  for (std::uint64_t seed : {3u, 17u}) {
    designs::RandomCircuitConfig rc;
    rc.num_gates = 80;
    rc.num_flops = 10;
    rc.num_inputs = 6;
    rc.num_outputs = 5;
    rc.seed = seed;
    const designs::Design d = designs::build_random_circuit(rc);
    check_circuit(d.netlist, small_config());
  }
}

TEST_F(BatchPartitionTest, CollapseSharingOffMatchesToo) {
  CounterCircuit c;
  CampaignConfig cfg = small_config();
  cfg.collapse_equivalent = false;
  check_circuit(c.nl, cfg);
}

TEST(FaultBatch, DffOutputFaultsMatchReference) {
  CounterCircuit c;
  const CampaignConfig cfg = small_config();
  std::vector<Fault> dff_faults;
  for (const NodeId ff : c.nl.flops()) {
    dff_faults.push_back({ff, false});
    dff_faults.push_back({ff, true});
  }
  ASSERT_FALSE(dff_faults.empty());
  const auto ref = levelized_reference(c.nl, cfg, dff_faults);

  CampaignConfig fcfg = cfg;
  fcfg.engine = FiEngine::kFrontier;
  FaultCampaign camp(c.nl, default_spec(), fcfg);
  const auto got = camp.run(dff_faults).faults;
  for (std::size_t i = 0; i < dff_faults.size(); ++i)
    expect_same_result(got[i], ref[i], "dff-output");
  // A stuck counter bit must actually corrupt the observed count.
  bool any_detected = false;
  for (const auto& r : got) any_detected |= r.detected_lanes != 0;
  EXPECT_TRUE(any_detected);
}

TEST(FaultBatch, RunAllSimulatesOneFaultPerCollapseClass) {
  designs::RandomCircuitConfig rc;
  rc.num_gates = 120;
  rc.num_flops = 12;
  rc.seed = 17;  // its INV chains collapse 264 faults into 260 classes
  const designs::Design d = designs::build_random_circuit(rc);
  CampaignConfig cfg = small_config();
  FaultCampaign camp(d.netlist, default_spec(), cfg);
  const CampaignResult r = camp.run_all();

  ASSERT_EQ(r.faults.size(), full_fault_list(d.netlist).size());
  for (const FaultResult& f : r.faults) EXPECT_GT(f.cone_size, 0u);
  // The campaign simulates exactly one fault per collapse-equivalence
  // class, one pass each.
  const CollapsedFaults collapsed = collapse_faults(d.netlist);
  EXPECT_LT(collapsed.representatives.size(), r.faults.size());
  EXPECT_EQ(r.simulated_faults, collapsed.representatives.size());
  EXPECT_EQ(r.num_batches, r.simulated_faults);
}

TEST(FaultBatch, ThreadCountSweepIsBitIdentical) {
  designs::RandomCircuitConfig rc;
  rc.num_gates = 100;
  rc.num_flops = 10;
  rc.seed = 11;
  const designs::Design d = designs::build_random_circuit(rc);

  auto run_with_threads = [&](int threads) {
    CampaignConfig cfg = small_config();
    cfg.num_threads = threads;
    FaultCampaign camp(d.netlist, default_spec(), cfg);
    return camp.run_all();
  };
  const CampaignResult r1 = run_with_threads(1);
  for (const int threads : {2, 4}) {
    const CampaignResult rn = run_with_threads(threads);
    ASSERT_EQ(rn.faults.size(), r1.faults.size());
    for (std::size_t i = 0; i < r1.faults.size(); ++i) {
      // Bit-identical CampaignResult ordering and content per PR 4's
      // determinism contract.
      expect_same_result(rn.faults[i], r1.faults[i], "thread-sweep");
    }
    EXPECT_EQ(rn.simulated_faults, r1.simulated_faults);
    EXPECT_EQ(rn.frontier_evals, r1.frontier_evals);
    EXPECT_EQ(rn.early_exit_cycles, r1.early_exit_cycles);
  }
}

TEST(FaultBatch, FrontierRunMatchesLevelizedRun) {
  designs::RandomCircuitConfig rc;
  rc.num_gates = 90;
  rc.num_flops = 8;
  rc.seed = 23;
  const designs::Design d = designs::build_random_circuit(rc);

  CampaignConfig lcfg = small_config();
  lcfg.engine = FiEngine::kLevelized;
  FaultCampaign lev(d.netlist, default_spec(), lcfg);
  const CampaignResult lr = lev.run_all();

  CampaignConfig fcfg = small_config();
  FaultCampaign fr(d.netlist, default_spec(), fcfg);
  const CampaignResult rr = fr.run_all();

  ASSERT_EQ(lr.faults.size(), rr.faults.size());
  for (std::size_t i = 0; i < lr.faults.size(); ++i)
    expect_same_result(rr.faults[i], lr.faults[i], "engine-equivalence");
  // The frontier run reports its pass statistics.
  EXPECT_EQ(rr.num_batches, rr.simulated_faults);
  EXPECT_GT(rr.simulated_faults, 0u);
  EXPECT_LE(rr.simulated_faults, rr.faults.size());
  EXPECT_EQ(lr.num_batches, 0u);
}

}  // namespace
}  // namespace fcrit::fault
