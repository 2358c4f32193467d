#include "src/sim/packed_sim.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/netlist/levelize.hpp"
#include "src/rtl/builder.hpp"
#include "src/sim/stimulus.hpp"
#include "src/util/rng.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit::sim {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

TEST(PackedSim, CombinationalGateEvaluation) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(CellKind::kNand2, {a, b});
  PackedSimulator s(nl);
  s.eval_comb(std::vector<std::uint64_t>{0b1100, 0b1010});
  EXPECT_EQ(s.value(g) & 0xfULL, 0b0111ULL);
}

TEST(PackedSim, ConstantsHoldValues) {
  Netlist nl;
  nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId c1 = nl.add_const(true);
  PackedSimulator s(nl);
  s.step(std::vector<std::uint64_t>{0});
  EXPECT_EQ(s.value(c0), 0u);
  EXPECT_EQ(s.value(c1), ~0ULL);
}

TEST(PackedSim, DffDelaysByOneCycle) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate(CellKind::kDff, {a});
  const NodeId ff2 = nl.add_gate(CellKind::kDff, {ff});
  PackedSimulator s(nl);
  s.step(std::vector<std::uint64_t>{~0ULL});
  EXPECT_EQ(s.value(ff), ~0ULL);  // captured at the first edge
  EXPECT_EQ(s.value(ff2), 0u);    // still previous state of ff (0)
  s.step(std::vector<std::uint64_t>{0});
  EXPECT_EQ(s.value(ff), 0u);
  EXPECT_EQ(s.value(ff2), ~0ULL);
}

TEST(PackedSim, EvalCombDoesNotClock) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate(CellKind::kDff, {a});
  PackedSimulator s(nl);
  s.eval_comb(std::vector<std::uint64_t>{~0ULL});
  EXPECT_EQ(s.value(ff), 0u);  // not clocked yet
  s.clock();
  EXPECT_EQ(s.value(ff), ~0ULL);
}

TEST(PackedSim, ResetClearsState) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate(CellKind::kDff, {a});
  PackedSimulator s(nl);
  s.step(std::vector<std::uint64_t>{~0ULL});
  EXPECT_EQ(s.value(ff), ~0ULL);
  s.reset();
  EXPECT_EQ(s.value(ff), 0u);
}

TEST(PackedSim, WrongInputCountThrows) {
  Netlist nl;
  nl.add_input("a");
  nl.add_input("b");
  PackedSimulator s(nl);
  EXPECT_THROW(s.step(std::vector<std::uint64_t>{0}), std::runtime_error);
}

TEST(PackedSim, SequentialLoopToggles) {
  Netlist nl;
  const NodeId ff = nl.add_gate(CellKind::kDff, {netlist::kNoNode});
  const NodeId inv = nl.add_gate(CellKind::kInv, {ff});
  nl.set_fanin(ff, 0, inv);
  PackedSimulator s(nl);
  std::vector<std::uint64_t> no_inputs;
  s.step(no_inputs);
  EXPECT_EQ(s.value(ff), ~0ULL);
  s.step(no_inputs);
  EXPECT_EQ(s.value(ff), 0u);
  s.step(no_inputs);
  EXPECT_EQ(s.value(ff), ~0ULL);
}

TEST(PackedSim, FaultOnCombNodeForcesValue) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a});
  const NodeId h = nl.add_gate(CellKind::kBuf, {g});
  PackedSimulator s(nl);
  s.inject(g, /*stuck_value=*/true);
  s.eval_comb(std::vector<std::uint64_t>{~0ULL});  // inv would output 0
  EXPECT_EQ(s.value(g), ~0ULL);
  EXPECT_EQ(s.value(h), ~0ULL);  // fault propagates downstream
  s.clear_fault();
  s.eval_comb(std::vector<std::uint64_t>{~0ULL});
  EXPECT_EQ(s.value(g), 0u);
}

TEST(PackedSim, FaultOnInputOverridesStimulus) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kBuf, {a});
  PackedSimulator s(nl);
  s.inject(a, /*stuck_value=*/false);
  s.eval_comb(std::vector<std::uint64_t>{~0ULL});
  EXPECT_EQ(s.value(g), 0u);
}

TEST(PackedSim, FaultOnDffStateSticks) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId ff = nl.add_gate(CellKind::kDff, {a});
  const NodeId g = nl.add_gate(CellKind::kBuf, {ff});
  PackedSimulator s(nl);
  s.inject(ff, /*stuck_value=*/true);
  s.step(std::vector<std::uint64_t>{0});  // D=0 but Q stuck at 1
  EXPECT_EQ(s.value(ff), ~0ULL);
  EXPECT_EQ(s.value(g), ~0ULL);  // comb saw forced Q during the cycle
}

TEST(PackedSim, LanesAreIndependentSequentially) {
  // A 2-bit counter with enable; enable only lanes 0 and 3.
  Netlist nl;
  rtl::Builder b(nl, 1);
  const NodeId en = b.input("en");
  const rtl::Bus cnt = b.reg_placeholder_bus(2);
  const rtl::Bus inc = b.increment(cnt);
  b.connect_reg_bus(cnt, b.mux_bus(cnt, inc, en));
  nl.validate();

  PackedSimulator s(nl);
  const std::uint64_t en_mask = 0b1001;
  for (int t = 0; t < 3; ++t) s.step(std::vector<std::uint64_t>{en_mask});
  // Lanes 0 and 3 counted to 3, others stayed 0.
  auto lane_count = [&](int lane) {
    return ((s.value(cnt[0]) >> lane) & 1) |
           (((s.value(cnt[1]) >> lane) & 1) << 1);
  };
  EXPECT_EQ(lane_count(0), 3u);
  EXPECT_EQ(lane_count(1), 0u);
  EXPECT_EQ(lane_count(2), 0u);
  EXPECT_EQ(lane_count(3), 3u);
}

/// Property: the packed simulator agrees with a naive single-pattern
/// reference evaluation on random combinational circuits.
class RandomCircuitTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitTest, PackedMatchesScalarReference) {
  util::Rng rng(GetParam());
  Netlist nl;
  std::vector<NodeId> pool;
  const int num_inputs = 4 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < num_inputs; ++i)
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  const int num_gates = 30 + static_cast<int>(rng.next_below(40));
  for (int g = 0; g < num_gates; ++g) {
    // Random combinational kind (skip inputs/consts/dff).
    CellKind kind;
    do {
      kind = static_cast<CellKind>(
          3 + rng.next_below(static_cast<std::uint64_t>(
                  netlist::kNumCellKinds - 4)));
    } while (kind == CellKind::kDff);
    std::vector<NodeId> fanins;
    for (int j = 0; j < netlist::spec(kind).arity; ++j)
      fanins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(nl.add_gate(kind, fanins));
  }

  PackedSimulator sim(nl);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(num_inputs));
  for (auto& w : words) w = rng.next();
  sim.eval_comb(words);

  // Scalar reference on 8 random lanes.
  for (int check = 0; check < 8; ++check) {
    const int lane = static_cast<int>(rng.next_below(64));
    std::vector<bool> value(nl.num_nodes());
    for (int i = 0; i < num_inputs; ++i)
      value[nl.inputs()[static_cast<std::size_t>(i)]] =
          (words[static_cast<std::size_t>(i)] >> lane) & 1;
    const auto lev = netlist::levelize(nl);
    for (const NodeId id : lev.order) {
      std::vector<bool> ins;
      for (const NodeId f : nl.fanins(id)) ins.push_back(value[f]);
      std::unique_ptr<bool[]> buf(new bool[ins.size() + 1]);
      for (std::size_t i = 0; i < ins.size(); ++i) buf[i] = ins[i];
      value[id] = netlist::eval_bool(
          nl.kind(id), std::span<const bool>(buf.get(), ins.size()));
    }
    for (NodeId id = 0; id < nl.num_nodes(); ++id)
      EXPECT_EQ(static_cast<bool>((sim.value(id) >> lane) & 1), value[id])
          << "node " << id << " lane " << lane;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// fnv1a64 of every node word after each of 64 combinational settles,
/// driven by the design's own stimulus (seed 5), with `fault` injected.
enum class PinFault { kNone, kComb, kDff };

std::uint64_t trace_hash(const designs::Design& d, PinFault fault) {
  const Netlist& nl = d.netlist;
  PackedSimulator sim(nl);
  if (fault == PinFault::kComb) {
    // First combinational gate in the second half of the node ids.
    NodeId id = static_cast<NodeId>(nl.num_nodes() / 2);
    while (nl.kind(id) == CellKind::kInput || nl.kind(id) == CellKind::kDff ||
           nl.kind(id) == CellKind::kConst0 ||
           nl.kind(id) == CellKind::kConst1)
      ++id;
    sim.inject(id, /*stuck_value=*/true);
  } else if (fault == PinFault::kDff) {
    sim.inject(nl.flops()[nl.flops().size() / 2], /*stuck_value=*/true);
  }
  StimulusGenerator stim(nl, d.stimulus, 5);
  std::vector<std::uint64_t> words, trace;
  for (int t = 0; t < 64; ++t) {
    stim.next_cycle(words);
    sim.eval_comb(words);
    trace.insert(trace.end(), sim.values().begin(), sim.values().end());
    sim.clock();
  }
  return pins::hash_bytes(std::span<const std::uint64_t>(trace));
}

// Node-for-node packed traces, fault-free and with a stuck-at fault on a
// combinational gate and on a flip-flop.
TEST(PackedSim, TraceMatchesPinnedHash) {
  const designs::Design sdram = designs::build_design("sdram_ctrl");
  const designs::Design random = designs::build_random_circuit(
      {.num_inputs = 24, .num_gates = 800, .num_flops = 48,
       .num_outputs = 8, .seed = 11});
  const struct {
    const designs::Design* design;
    PinFault fault;
    std::uint64_t pinned;
  } cases[] = {
      {&sdram, PinFault::kNone, 0x3c5cd99709d3c140ULL},
      {&sdram, PinFault::kComb, 0x7e796152d4cc5335ULL},
      {&sdram, PinFault::kDff, 0x1de5efa43c0bf04bULL},
      {&random, PinFault::kNone, 0x31026fa38afd0029ULL},
      {&random, PinFault::kComb, 0x731ec2ca3141e7f0ULL},
      {&random, PinFault::kDff, 0x0241fbb9d86af6e5ULL},
  };
  for (const auto& c : cases) {
    const std::uint64_t got = trace_hash(*c.design, c.fault);
    EXPECT_EQ(got, c.pinned) << c.design->name << " fault "
                             << static_cast<int>(c.fault) << ": got 0x"
                             << std::hex << got;
  }
}

}  // namespace
}  // namespace fcrit::sim
