// Pins of the score front end, recorded on x86-64 with the export -> parse
// -> export content hash and the map-plus-sort graph build, before either
// was rewritten:
//   * to_verilog bytes of the five built-in designs (export must not move),
//   * netlist_content_hash of the built-ins, their parsed .v exports, their
//     .bench re-parses, random circuits and a hand-built netlist,
//   * build_graph's edges, entry_edge, row_ptr, col_index and value bytes
//     on the same set (GNNExplainer indexes its masks by edge, so the
//     first-seen edge order and every Â bit are part of the contract).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/graphir/graph.hpp"
#include "src/netlist/bench_format.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/serve/bundle.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

const std::vector<std::string> kBuiltins = {
    "sdram_ctrl", "or1200_if", "or1200_icfsm", "or1200_genpc", "ee_zonal"};

/// Two inputs, a repeated fanin (AND2(a, a), MX2(g, g, s)), gate<->DFF
/// two-node loops in both id orders, a DFF feeding itself and a constant
/// added after gates, so the parser's order differs from id order.
Netlist hand_built() {
  Netlist nl("hand_built");
  const NodeId a = nl.add_input("a");
  const NodeId ff1 = nl.add_gate(CellKind::kDff, {netlist::kNoNode});
  const NodeId b = nl.add_input("b");
  const NodeId both = nl.add_gate(CellKind::kAnd2, {a, a});
  const NodeId loop = nl.add_gate(CellKind::kNand2, {ff1, b});
  nl.set_fanin(ff1, 0, loop);  // ff1 < loop, loop reads ff1
  const NodeId inv = nl.add_gate(CellKind::kInv, {netlist::kNoNode});
  const NodeId ff2 = nl.add_gate(CellKind::kDff, {inv});
  nl.set_fanin(inv, 0, ff2);  // inv < ff2, inv reads ff2
  const NodeId one = nl.add_const(true);
  const NodeId mux = nl.add_gate(CellKind::kMux2, {both, both, one});
  const NodeId self = nl.add_gate(CellKind::kDff, {netlist::kNoNode});
  nl.set_fanin(self, 0, self);
  const NodeId out = nl.add_gate(CellKind::kOr3, {mux, ff2, self});
  nl.add_output("y", out);
  nl.add_output("z", loop);
  nl.validate();
  return nl;
}

struct Case {
  std::string name;
  Netlist netlist;
};

/// The pinned set, in the order of kPins below.
std::vector<Case> pinned_cases() {
  std::vector<Case> cases;
  for (const std::string& name : kBuiltins) {
    const designs::Design d = designs::build_design(name);
    cases.push_back({name, d.netlist});
    cases.push_back(
        {name + ".v", netlist::parse_verilog(netlist::to_verilog(d.netlist))});
    cases.push_back({name + ".bench",
                     netlist::parse_bench(netlist::to_bench(d.netlist), name)});
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    designs::RandomCircuitConfig rc;
    rc.num_inputs = 2 + static_cast<int>(seed % 7);
    rc.num_gates = 8 + static_cast<int>(seed * seed * 3);
    rc.num_flops = static_cast<int>(seed % 5) * 2;
    rc.num_outputs = 1 + static_cast<int>(seed % 4);
    rc.reuse_bias = seed % 2 == 0 ? 0.3 : 0.9;
    rc.seed = seed;
    cases.push_back({"random_" + std::to_string(seed),
                     designs::build_random_circuit(rc).netlist});
  }
  cases.push_back({"hand_built", hand_built()});
  return cases;
}

std::uint64_t graph_digest(const graphir::CircuitGraph& g) {
  std::vector<int> edges;
  edges.reserve(2 * g.edges.size());
  for (const auto& [u, v] : g.edges) {
    edges.push_back(u);
    edges.push_back(v);
  }
  const auto& adj = g.normalized_adjacency;
  const std::array<std::uint64_t, 6> parts = {
      static_cast<std::uint64_t>(g.num_nodes),
      pins::hash_bytes(std::span<const int>(edges)),
      pins::hash_bytes(std::span<const int>(g.entry_edge)),
      pins::hash_bytes(std::span<const int>(adj.row_ptr())),
      pins::hash_bytes(std::span<const int>(adj.col_index())),
      pins::hash_bytes(std::span<const float>(adj.values()))};
  return pins::hash_bytes(std::span<const std::uint64_t>(parts));
}

struct Pin {
  const char* name;
  std::uint64_t content_hash;
  std::uint64_t graph;
};

// clang-format off
constexpr Pin kPins[] = {
    {"sdram_ctrl", 0xf60325ef5e5779beULL, 0xcc19ca7de727bf1aULL},
    {"sdram_ctrl.v", 0xf60325ef5e5779beULL, 0xd4e7d57c1467eeebULL},
    {"sdram_ctrl.bench", 0x523bbab80db285a5ULL, 0x188824730c51e06aULL},
    {"or1200_if", 0xb2dfdcb350ea2f7eULL, 0x660c077c0b8bf37fULL},
    {"or1200_if.v", 0xb2dfdcb350ea2f7eULL, 0x3091273b2f1def48ULL},
    {"or1200_if.bench", 0xd77dad676a581d82ULL, 0x38e5d122c53ca7efULL},
    {"or1200_icfsm", 0xe6e3f6f42001b43eULL, 0xcc17088536baa095ULL},
    {"or1200_icfsm.v", 0xe6e3f6f42001b43eULL, 0x0ec69861790e3a6aULL},
    {"or1200_icfsm.bench", 0xf62745ff0a723454ULL, 0xeb80bd4266e7e5f1ULL},
    {"or1200_genpc", 0x96b5c05d5bc5163bULL, 0xa3f1057491cc4cffULL},
    {"or1200_genpc.v", 0x96b5c05d5bc5163bULL, 0x59df26d059c25071ULL},
    {"or1200_genpc.bench", 0x04191ef52ee99a29ULL, 0x1440131e07092c96ULL},
    {"ee_zonal", 0x5640da30a0f031daULL, 0x9016d7af77744a5dULL},
    {"ee_zonal.v", 0x5640da30a0f031daULL, 0x5d7ea672dc1ec46fULL},
    {"ee_zonal.bench", 0x354f4e304519eb08ULL, 0xeaac479829160bc8ULL},
    {"random_1", 0x66d4fde9de896348ULL, 0xc00c5089f6f774f8ULL},
    {"random_2", 0xa3ccad99b9645bc1ULL, 0x5e2041393bf8036cULL},
    {"random_3", 0x724faa84864b38a5ULL, 0x0cf348a7af37a86cULL},
    {"random_4", 0xb03c677960330d66ULL, 0x5acf2ed5875eb5e3ULL},
    {"random_5", 0x1b493bfe34940ab8ULL, 0xb88eef388847272cULL},
    {"random_6", 0xb186ecf4dddb18cbULL, 0xe88662dea9ba07d3ULL},
    {"random_7", 0x1d35789eebe3489aULL, 0x7af9c1629132554bULL},
    {"random_8", 0xe12769150e298cf1ULL, 0x48332f85e43b9318ULL},
    {"random_9", 0xbe866724e6b54e49ULL, 0x1fbaf2b34de8bbb1ULL},
    {"random_10", 0xaf985e235954e263ULL, 0xfe8d11c9a17ad467ULL},
    {"random_11", 0xc0db557dad46cf1dULL, 0x20de8605934b6f4fULL},
    {"random_12", 0x5ae50be336b362aaULL, 0xdf504cd24f935f51ULL},
    {"random_13", 0x1b43879749f34568ULL, 0x97155dac5ef28e6eULL},
    {"random_14", 0xc547e737d5f18166ULL, 0x259123f381508515ULL},
    {"random_15", 0x5fae4ece8a7711d7ULL, 0x51f2407a1fe3f02eULL},
    {"random_16", 0x38a6c86f57de799aULL, 0xcec4195b61624f72ULL},
    {"random_17", 0xa30caffc04241137ULL, 0xecf3f6db0a9280feULL},
    {"random_18", 0xdd2453a0acd88a98ULL, 0x2f2464ddb441ee4aULL},
    {"random_19", 0xa0247cd8368ec8c4ULL, 0x931683d220bb5cabULL},
    {"random_20", 0xb74f4e3430c5902aULL, 0x5d822f386d2b2788ULL},
    {"random_21", 0x28dba12def23d8c1ULL, 0x0211f39f153467b1ULL},
    {"random_22", 0x266816cca0edcf93ULL, 0xc65d65472bac7f91ULL},
    {"random_23", 0x882cac05b258d511ULL, 0x06ac2e64c5646cd7ULL},
    {"random_24", 0xb33c03aeacb24f54ULL, 0xa2d9c17c3739dca6ULL},
    {"hand_built", 0x92d0f52242fd4b87ULL, 0x8ddba792fddd275dULL},
};
// clang-format on

TEST(FrontEndPins, ExportBytesOfBuiltinsAreUnchanged) {
  constexpr std::uint64_t kExport[] = {
      0x2a192166428f5a5eULL, 0x56b8ef8a89ffbcc3ULL,
      0xcb39d98c7c2e3d85ULL, 0xa7fff997f671c5b2ULL,
      0xaf2ecbcdb23a39dbULL};
  for (std::size_t i = 0; i < kBuiltins.size(); ++i) {
    const std::string text =
        netlist::to_verilog(designs::build_design(kBuiltins[i]).netlist);
    const std::uint64_t got = serve::fnv1a64(text);
    EXPECT_EQ(got, kExport[i])
        << kBuiltins[i] << std::hex << ": got 0x" << got;
  }
}

TEST(FrontEndPins, ContentHashAndGraphMatchThePins) {
  const std::vector<Case> cases = pinned_cases();
  ASSERT_EQ(cases.size(), std::size(kPins));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    EXPECT_EQ(c.name, kPins[i].name);
    const std::uint64_t hash = serve::netlist_content_hash(c.netlist);
    const std::uint64_t graph = graph_digest(graphir::build_graph(c.netlist));
    EXPECT_EQ(hash, kPins[i].content_hash)
        << c.name << std::hex << ": content hash 0x" << hash;
    EXPECT_EQ(graph, kPins[i].graph)
        << c.name << std::hex << ": graph 0x" << graph;
  }
}

}  // namespace
}  // namespace fcrit
