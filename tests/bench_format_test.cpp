#include "src/netlist/bench_format.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/designs/designs.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::netlist {
namespace {

TEST(BenchParse, BasicCircuit) {
  const std::string text = R"(
# c17-style sample
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOT(c)
y = OR(n1, n2)
)";
  const Netlist nl = parse_bench(text, "sample");
  EXPECT_EQ(nl.name(), "sample");
  EXPECT_EQ(nl.inputs().size(), 3u);
  ASSERT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.num_gates(), 3u);
}

TEST(BenchParse, DffAndForwardReferences) {
  const std::string text = R"(
INPUT(a)
OUTPUT(q)
q = DFF(n1)
n1 = XOR(a, q)
)";
  const Netlist nl = parse_bench(text);
  EXPECT_EQ(nl.flops().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchParse, WideGatesMapToTrees) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(y)
y = AND(a, b, c, d, e, f)
)";
  const Netlist nl = parse_bench(text);
  // Functional check: y == 1 iff all inputs 1.
  sim::PackedSimulator s(nl);
  std::vector<std::uint64_t> words(6, ~0ULL);
  s.eval_comb(words);
  EXPECT_EQ(s.output_word(0), ~0ULL);
  words[3] = ~2ULL;  // lane 1 gets a 0 on input d
  s.eval_comb(words);
  EXPECT_EQ(s.output_word(0), ~2ULL);
}

TEST(BenchParse, WideNandIsInvertedAnd) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
y = NAND(a, b, c, d, e)
)";
  const Netlist nl = parse_bench(text);
  sim::PackedSimulator s(nl);
  std::vector<std::uint64_t> words(5, ~0ULL);
  s.eval_comb(words);
  EXPECT_EQ(s.output_word(0), 0u);
  words[0] = 0;
  s.eval_comb(words);
  EXPECT_EQ(s.output_word(0), ~0ULL);
}

TEST(BenchParse, XorChain) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = XOR(a, b, c)
)";
  const Netlist nl = parse_bench(text);
  sim::PackedSimulator s(nl);
  // Try all 8 combinations across lanes 0-7.
  std::vector<std::uint64_t> words(3, 0);
  for (int lane = 0; lane < 8; ++lane)
    for (int j = 0; j < 3; ++j)
      if ((lane >> j) & 1) words[static_cast<std::size_t>(j)] |= 1ULL << lane;
  s.eval_comb(words);
  for (int lane = 0; lane < 8; ++lane) {
    const int ones = ((lane >> 0) & 1) + ((lane >> 1) & 1) + ((lane >> 2) & 1);
    EXPECT_EQ((s.output_word(0) >> lane) & 1,
              static_cast<std::uint64_t>(ones & 1));
  }
}

TEST(BenchParse, NetNamesBecomeNodeNames) {
  const std::string text = R"(
INPUT(a)
OUTPUT(sum)
carry = AND(a, a)
sum = NOT(carry)
)";
  const Netlist nl = parse_bench(text);
  EXPECT_TRUE(nl.find("carry").has_value());
  EXPECT_TRUE(nl.find("sum").has_value());
  EXPECT_EQ(nl.kind(*nl.find("sum")), CellKind::kInv);
}

/// The exception text of a parse that must fail, or "" when it succeeds.
std::string parse_error(std::string_view text) {
  try {
    parse_bench(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Exact texts, line numbers included; blank, comment-only and CRLF lines
// count as lines.
TEST(BenchParse, Errors) {
  EXPECT_EQ(parse_error("y = FROB(a)\n"),
            "bench parse error (line 1): unsupported gate 'FROB'");
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"),
            "bench parse error (line 3): net 'ghost' has no driver");
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(y)\n"),
            "bench parse error (line 2): output 'y' has no driver");
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"),
            "bench parse error (line 4): net 'y' has multiple drivers");
  EXPECT_EQ(parse_error("\n# only a comment\n\r\nINPUT a\n"),
            "bench parse error (line 4): expected INPUT(x) / OUTPUT(x) or "
            "assignment");
  EXPECT_EQ(parse_error("INPUT(a)\r\nWIRE(a)\r\n"),
            "bench parse error (line 2): unknown directive 'WIRE'");
  EXPECT_EQ(parse_error("INPUT(a)\n\n\ny = a"),
            "bench parse error (line 4): expected GATE(inputs...)");
  EXPECT_EQ(parse_error("INPUT(a)\ny = AND( , )  # empty\n"),
            "bench parse error (line 2): gate with no inputs");
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)"),
            "bench parse error (line 3): NOT expects 1 input");
}

// CRLF line ends, no final newline, comment-only and blank lines and a
// 9-input gate (a two-level tree) parse to these exported bytes.
TEST(BenchParse, ExportOfAwkwardTextIsPinned) {
  const std::string text =
      "# awkward but valid\r\n"
      "INPUT(a)\r\nINPUT(b)\r\nINPUT(c)\r\nINPUT(d)\r\nINPUT(e)\r\n"
      "INPUT(f)\r\nINPUT(g)\r\nINPUT(h)\r\nINPUT(i)\r\n"
      "OUTPUT(y)\r\n"
      "\r\n"
      "   # comment-only line\r\n"
      "\t\r\n"
      "t = NAND(a, b, c, d, e, f, g, h, i)  # nine inputs\r\n"
      "q = DFF(y)\r\n"
      "y = XNOR(t, q)";
  EXPECT_EQ(to_bench(parse_bench(text, "awkward")),
            "# fcrit netlist 'awkward' in ISCAS bench format\n"
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n"
            "INPUT(g)\nINPUT(h)\nINPUT(i)\nOUTPUT(y)\n"
            "\n"
            "n9 = AND(a, b, c, d)\n"
            "n10 = AND(e, f, g, h)\n"
            "n11 = NAND(n9, n10, i)\n"
            "n12 = DFF(n14)\n"
            "n13 = XOR(n11, n12)\n"
            "n14 = NOT(n13)\n"
            "y = BUFF(n14)\n");
}

// The reader stops at the end of the view, which ends without a newline:
// read on, the buffer would extend the view's last line and then fail on
// an unknown gate.
TEST(BenchParse, ReadsOnlyTheView) {
  const std::string buffer =
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)INPUT(b)\nz = FROB(b)\n";
  const std::string_view view(buffer.data(), buffer.find("INPUT(b)"));
  const Netlist nl = parse_bench(view);
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.kind(*nl.find("y")), CellKind::kInv);
}

/// Functional round-trip: write a real design to bench format, parse it
/// back, and verify cycle-exact agreement of every output over a random
/// workload (node structure may differ because complex cells decompose).
class BenchRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchRoundTrip, SimulationMatchesAfterRoundTrip) {
  const auto d = designs::build_design(GetParam());
  const Netlist reparsed = parse_bench(to_bench(d.netlist), d.netlist.name());

  ASSERT_EQ(reparsed.inputs().size(), d.netlist.inputs().size());
  ASSERT_EQ(reparsed.outputs().size(), d.netlist.outputs().size());

  sim::PackedSimulator sim_a(d.netlist);
  sim::PackedSimulator sim_b(reparsed);
  sim::StimulusGenerator stim(d.netlist, d.stimulus, 99);

  // Input order may differ; map by name.
  std::vector<std::size_t> input_map(reparsed.inputs().size());
  for (std::size_t i = 0; i < reparsed.inputs().size(); ++i) {
    const auto& name = reparsed.node(reparsed.inputs()[i]).name;
    bool found = false;
    for (std::size_t j = 0; j < d.netlist.inputs().size(); ++j) {
      if (d.netlist.node(d.netlist.inputs()[j]).name == name) {
        input_map[i] = j;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << name;
  }

  std::vector<std::uint64_t> words, words_b(reparsed.inputs().size());
  for (int t = 0; t < 64; ++t) {
    stim.next_cycle(words);
    for (std::size_t i = 0; i < words_b.size(); ++i)
      words_b[i] = words[input_map[i]];
    sim_a.eval_comb(words);
    sim_b.eval_comb(words_b);
    for (std::size_t o = 0; o < d.netlist.outputs().size(); ++o) {
      EXPECT_EQ(sim_a.output_word(o), sim_b.output_word(o))
          << "output " << d.netlist.outputs()[o].name << " cycle " << t;
    }
    sim_a.clock();
    sim_b.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, BenchRoundTrip,
                         ::testing::Values("sdram_ctrl", "or1200_if",
                                           "or1200_icfsm"));

}  // namespace
}  // namespace fcrit::netlist
