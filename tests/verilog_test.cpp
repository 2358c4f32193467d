#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <streambuf>
#include <sstream>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"

namespace fcrit::netlist {
namespace {

Netlist sample() {
  Netlist nl("sample");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c0 = nl.add_const(false);
  const NodeId g1 = nl.add_gate(CellKind::kNand2, {a, b});
  const NodeId g2 = nl.add_gate(CellKind::kMux2, {g1, a, b});
  const NodeId ff = nl.add_gate(CellKind::kDff, {g2});
  const NodeId g3 = nl.add_gate(CellKind::kOai21, {ff, c0, g1});
  nl.add_output("y", g3);
  nl.add_output("q", ff);
  return nl;
}

TEST(VerilogWriter, EmitsModuleSkeleton) {
  const std::string text = to_verilog(sample());
  EXPECT_NE(text.find("module sample ("), std::string::npos);
  EXPECT_NE(text.find("input clk"), std::string::npos);
  EXPECT_NE(text.find("input a"), std::string::npos);
  EXPECT_NE(text.find("output y"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_NE(text.find("ND2"), std::string::npos);
  EXPECT_NE(text.find(".CP(clk)"), std::string::npos);
  EXPECT_NE(text.find("assign"), std::string::npos);
}

TEST(VerilogWriter, PinNamesPerKind) {
  EXPECT_EQ(pin_names(CellKind::kNand2),
            (std::vector<std::string>{"A", "B", "Y"}));
  EXPECT_EQ(pin_names(CellKind::kMux2),
            (std::vector<std::string>{"A", "B", "S", "Y"}));
  EXPECT_EQ(pin_names(CellKind::kDff), (std::vector<std::string>{"D", "Q"}));
  EXPECT_EQ(pin_names(CellKind::kInv), (std::vector<std::string>{"A", "Y"}));
  EXPECT_EQ(pin_names(CellKind::kAoi22),
            (std::vector<std::string>{"A", "B", "C", "D", "Y"}));
}

/// Constants have no instance name in Verilog (they are emitted as assign
/// statements), so their auto-generated TIE names cannot round-trip; every
/// other node's identity is preserved through its instance name.
std::string canonical_name(const Netlist& nl, NodeId id) {
  switch (nl.kind(id)) {
    case CellKind::kConst0:
      return "<TIE0>";
    case CellKind::kConst1:
      return "<TIE1>";
    default:
      return nl.node(id).name;
  }
}

void expect_equivalent(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    if (a.kind(id) == CellKind::kConst0 || a.kind(id) == CellKind::kConst1)
      continue;  // compared implicitly through their consumers' fanins
    const auto found = b.find(a.node(id).name);
    ASSERT_TRUE(found.has_value()) << "missing node " << a.node(id).name;
    EXPECT_EQ(a.kind(id), b.kind(*found));
    const auto fa = a.fanins(id);
    const auto fb = b.fanins(*found);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
      EXPECT_EQ(canonical_name(a, fa[i]), canonical_name(b, fb[i]));
  }
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    EXPECT_EQ(a.outputs()[i].name, b.outputs()[i].name);
    EXPECT_EQ(canonical_name(a, a.outputs()[i].driver),
              canonical_name(b, b.outputs()[i].driver));
  }
}

TEST(VerilogRoundTrip, SampleCircuit) {
  const Netlist original = sample();
  const Netlist reparsed = parse_verilog(to_verilog(original));
  expect_equivalent(original, reparsed);
}

class DesignRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(DesignRoundTrip, WriteParsePreservesStructure) {
  const auto design = designs::build_design(GetParam());
  const Netlist reparsed = parse_verilog(to_verilog(design.netlist));
  expect_equivalent(design.netlist, reparsed);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignRoundTrip,
                         ::testing::Values("sdram_ctrl", "or1200_if",
                                           "or1200_icfsm"));

TEST(VerilogParser, ParsesHandWrittenModule) {
  const std::string text = R"(
// comment
module top (input clk, input a, input b, output y);
  wire n1; /* block
               comment */
  wire n2;
  ND2 u1 (.Y(n1), .A(a), .B(b));
  FD1 r1 (.Q(n2), .D(n1), .CP(clk));
  assign y = n2;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  EXPECT_EQ(nl.name(), "top");
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.num_gates(), 2u);
  ASSERT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.kind(nl.outputs()[0].driver), CellKind::kDff);
}

TEST(VerilogParser, ForwardReferencesResolve) {
  // r1 consumes u1's output that is defined later in the file.
  const std::string text = R"(
module fwd (input clk, input a, output q);
  wire w1;
  wire w2;
  FD1 r1 (.Q(w2), .D(w1), .CP(clk));
  IV u1 (.Y(w1), .A(a));
  assign q = w2;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  const auto r1 = nl.find("r1");
  const auto u1 = nl.find("u1");
  ASSERT_TRUE(r1 && u1);
  EXPECT_EQ(nl.fanins(*r1)[0], *u1);
}

TEST(VerilogParser, SequentialLoopAllowed) {
  const std::string text = R"(
module toggle (input clk, output q);
  wire w1;
  wire w2;
  FD1 r1 (.Q(w1), .D(w2), .CP(clk));
  IV u1 (.Y(w2), .A(w1));
  assign q = w1;
endmodule
)";
  EXPECT_NO_THROW(parse_verilog(text));
}

TEST(VerilogParser, ConstAssigns) {
  const std::string text = R"(
module consts (input clk, output y);
  wire t0;
  wire t1;
  wire n;
  assign t0 = 1'b0;
  assign t1 = 1'b1;
  AN2 u1 (.Y(n), .A(t0), .B(t1));
  assign y = n;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  const auto u1 = nl.find("u1");
  ASSERT_TRUE(u1);
  EXPECT_EQ(nl.kind(nl.fanins(*u1)[0]), CellKind::kConst0);
  EXPECT_EQ(nl.kind(nl.fanins(*u1)[1]), CellKind::kConst1);
}

TEST(VerilogParser, UnknownCellRejected) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n  XYZ u1 (.Y(n), .A(a));\n  assign y = n;\nendmodule\n";
  EXPECT_THROW(parse_verilog(text), std::runtime_error);
}

TEST(VerilogParser, MultipleDriversRejected) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n"
      "  IV u1 (.Y(n), .A(a));\n"
      "  IV u2 (.Y(n), .A(a));\n"
      "  assign y = n;\nendmodule\n";
  EXPECT_THROW(parse_verilog(text), std::runtime_error);
}

TEST(VerilogParser, UndrivenNetRejected) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n  IV u1 (.Y(y2), .A(n));\n  assign y = y2;\nendmodule\n";
  EXPECT_THROW(parse_verilog(text), std::runtime_error);
}

TEST(VerilogParser, BadPinRejected) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n  IV u1 (.Y(n), .Z(a));\n  assign y = n;\nendmodule\n";
  EXPECT_THROW(parse_verilog(text), std::runtime_error);
}

TEST(VerilogParser, ErrorCarriesLineNumber) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n"
      "  BOGUS u1 (.Y(n), .A(a));\n"
      "  assign y = n;\nendmodule\n";
  try {
    parse_verilog(text);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(VerilogParser, EveryDiagnosticCarriesItsLine) {
  // One defect per line class: multi-driven (line 4), bad pin (line 5),
  // undriven net consumed on line 6. The strict error must cite each line.
  const std::string text =
      "module m (input clk, input a, output y);\n"     // line 1
      "  wire n;\n"                                    // line 2
      "  IV u1 (.Y(n), .A(a));\n"                      // line 3
      "  IV u2 (.Y(n), .A(a));\n"                      // line 4: multi-driven
      "  IV u3 (.Y(w1), .Z(a));\n"                     // line 5: bad pin
      "  AN2 u4 (.Y(w2), .A(ghost), .B(a));\n"         // line 6: undriven
      "  assign y = w2;\nendmodule\n";
  try {
    parse_verilog(text);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 6"), std::string::npos) << msg;
  }
}

TEST(VerilogParser, CollectReturnsEveryIssueWithLines) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n"
      "  BOGUS u1 (.Y(n), .A(a));\n"   // line 3: unknown cell
      "  IV u2 (.Y(n), .A(a));\n"
      "  IV u3 (.Y(n), .A(a));\n"      // line 5: multi-driven
      "  assign y = n;\nendmodule\n";
  std::istringstream is(text);
  const auto parsed = parse_verilog_collect(is);
  ASSERT_EQ(parsed.issues.size(), 2u);
  EXPECT_EQ(parsed.issues[0].rule, "unknown-cell");
  EXPECT_EQ(parsed.issues[0].line, 3);
  EXPECT_EQ(parsed.issues[1].rule, "multi-driven");
  EXPECT_EQ(parsed.issues[1].line, 5);
  // Lenient repair: the returned netlist is still well-formed.
  EXPECT_NO_THROW(parsed.netlist.validate());
}

TEST(VerilogParser, OutputPortDiagnosticCarriesDeclarationLine) {
  // The undriven output `z` was declared on line 1; the diagnostic must
  // point there rather than at "line 0".
  const std::string text =
      "module m (input clk, input a,\n"
      "          output y, output z);\n"  // line 2: z declared here
      "  wire n;\n"
      "  IV u1 (.Y(n), .A(a));\n"
      "  assign y = n;\nendmodule\n";
  std::istringstream is(text);
  const auto parsed = parse_verilog_collect(is);
  ASSERT_EQ(parsed.issues.size(), 1u);
  EXPECT_EQ(parsed.issues[0].rule, "undriven-fanin");
  EXPECT_EQ(parsed.issues[0].line, 2);
  EXPECT_NE(parsed.issues[0].message.find("z"), std::string::npos);
}

// ---- malformed-input pins ------------------------------------------------
//
// Each case records the exact parse_verilog_collect outcome on a malformed
// input: the exception text, or every issue (rule, line, message) plus the
// repaired netlist (node order, kinds, names, fanins, outputs). The pins
// were recorded with the tokenizing reader that built a std::string per
// token and a std::map of nets (now check::reference_parse_verilog_collect)
// and hold every later reader to its exact behaviour.

/// A byte string as a C++ literal, so a failing case prints its new pin.
std::string cpp_literal(std::string_view s) {
  std::string out = "\"";
  bool hex_run = false;
  for (std::size_t k = 0; k < s.size(); ++k) {
    const char ch = s[k];
    const auto c = static_cast<unsigned char>(ch);
    const bool hex_digit = std::isxdigit(c) != 0;
    if (hex_run && hex_digit) out += "\" \"";
    hex_run = false;
    if (c == '\n') {
      out += k + 1 < s.size() ? "\\n\"\n\"" : "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
      hex_run = true;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string collect_outcome(const std::string& text) {
  std::istringstream is(text);
  try {
    const VerilogParse parse = parse_verilog_collect(is);
    std::string out;
    for (const ParseIssue& i : parse.issues)
      out += i.rule + "@" + std::to_string(i.line) + ": " + i.message + "\n";
    const Netlist& nl = parse.netlist;
    out += "module " + nl.name() + "\n";
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      out += std::to_string(id) + " " + std::string(spec(nl.kind(id)).name) +
             " " + nl.node(id).name;
      for (const NodeId f : nl.fanins(id)) {
        out += " ";
        out += std::to_string(f);
      }
      out += "\n";
    }
    for (const OutputPort& port : nl.outputs())
      out += "out " + port.name + "=" + std::to_string(port.driver) + "\n";
    return out;
  } catch (const std::exception& e) {
    return std::string("throws: ") + e.what();
  }
}

/// `assign y = c0; assign c0 = c1; ... assign c{links-1} = c{links};` with
/// c{links} driven by an inverter: y sits links + 1 hops from its driver.
std::string alias_chain(int links) {
  std::string text = "module chain (input clk, input a, output y);\n";
  text += "  IV u1 (.Y(c" + std::to_string(links) + "), .A(a));\n";
  text += "  assign y = c0;\n";
  for (int k = 0; k < links; ++k)
    text += "  assign c" + std::to_string(k) + " = c" +
            std::to_string(k + 1) + ";\n";
  return text + "endmodule\n";
}

struct PinCase {
  const char* name;
  std::string text;
  std::string expected;
};

std::vector<PinCase> malformed_cases() {
  using namespace std::string_literals;
  return {
      {"unterminated block comment",
       "module m (input clk, input a, output y);\n"
       "  wire n; /* never closed\n"
       "  IV u1 (.Y(n), .A(a));\n"
       "  assign y = n;\n"
       "endmodule\n",
       "throws: verilog parse error (line -1): unexpected end of file (missing endmodule?), got '<eof>'"},
      {"block comment over lines before an issue",
       "module m (input clk, input a, output y);\n"
       "  /* line 2\n"
       "     line 3 */ wire n; /* line 3\n"
       "     line 4 */\n"
       "  BOGUS u1 (.Y(n), .A(a));\n"
       "  assign y = n;\n"
       "endmodule\n",
       "unknown-cell@5: unknown cell 'BOGUS'\n"
       "undriven-fanin@1: net 'y' has no driver\n"
       "module m\n"
       "0 INPUT a\n"
       "1 TIE0 TIE0_U1\n"
       "out y=1\n"},
      {"block comment over lines before a syntax error",
       "module m (input clk, input a, output y);\n"
       "  /* one\n"
       "     two */ wire 9n;\n"
       "endmodule\n",
       "throws: verilog parse error (line 3): expected wire name, got '9n'"},
      {"crlf line ends and a lone cr",
       "module m (input clk, input a, output y);\r\n"
       "  wire n;\r\n"
       "  IV u1 (.Y(n), .A(a));\r"
       "  ND2 u2 (.Y(n), .A(a), .B(a));\r\n"
       "  assign y = n;\r\n"
       "endmodule\r\n",
       "multi-driven@3: net 'n' has multiple drivers (instance 'u2')\n"
       "module m\n"
       "0 INPUT a\n"
       "1 IV u1 0\n"
       "2 ND2 u2 0 0\n"
       "out y=1\n"},
      {"nul byte inside an instance name",
       "module m (input clk, input a, output y);\n"
       "  wire n;\n"
       "  IV u\0x1 (.Y(n), .A(a));\n"
       "  assign y = n;\n"
       "endmodule\n"s,
       "throws: verilog parse error (line 3): expected '(', got '"},
      {"nul byte as a pin name",
       "module m (input clk, input a, output y);\n"
       "  IV u1 (.Y(n), .\0(a));\n"
       "  assign y = n;\n"
       "endmodule\n"s,
       "bad-pin@2: cell 'IV' has no pin '\x00'\n"
       "undriven-fanin@2: pin .A of instance 'u1' is unconnected\n"
       "module m\n"
       "0 INPUT a\n"
       "1 IV u1 2\n"
       "2 TIE0 TIE0_U2\n"
       "out y=1\n"s},
      {"high byte inside a wire name",
       "module m (input clk, input a, output y);\n"
       "  wire n\xe9w;\n"
       "endmodule\n",
       "throws: verilog parse error (line 2): expected ';', got '\xe9'"},
      {"high bytes as a pin name and a cell name",
       "module m (input clk, input a, output y);\n"
       "  IV u1 (.Y(n), .\xe9(a));\n"
       "  \xb5 u2 (.Y(p), .A(a));\n"
       "  assign y = n;\n"
       "endmodule\n",
       "bad-pin@2: cell 'IV' has no pin '\xe9'\n"
       "undriven-fanin@2: pin .A of instance 'u1' is unconnected\n"
       "unknown-cell@3: unknown cell '\xb5'\n"
       "module m\n"
       "0 INPUT a\n"
       "1 IV u1 2\n"
       "2 TIE0 TIE0_U2\n"
       "out y=1\n"},
      {"lower-case, tie and unknown cells",
       "module m (input clk, input a, input b, output y, output z, "
       "output t);\n"
       "  nd2 u1 (.Y(n1), .A(a), .B(b));\n"
       "  Fd1 r1 (.Q(n2), .D(n1), .CP(clk));\n"
       "  XOR9 u2 (.Y(n3), .A(a));\n"
       "  INPUT u3 (.Y(n4));\n"
       "  tie1 u4 (.Y(n5));\n"
       "  assign y = n2;\n"
       "  assign z = n3;\n"
       "  assign t = n5;\n"
       "endmodule\n",
       "unknown-cell@4: unknown cell 'XOR9'\n"
       "unknown-cell@5: unknown cell 'INPUT'\n"
       "undriven-fanin@1: net 'z' has no driver\n"
       "module m\n"
       "0 INPUT a\n"
       "1 INPUT b\n"
       "2 ND2 u1 0 1\n"
       "3 FD1 r1 2\n"
       "4 TIE1 u4\n"
       "5 TIE0 TIE0_U5\n"
       "out y=3\n"
       "out z=5\n"
       "out t=4\n"},
      {"clock pin on a gate, repeated pins, missing pins",
       "module m (input clk, input a, input b, output y, output q);\n"
       "  ND2 u1 (.Y(n1), .A(a), .CP(b), .B(b));\n"
       "  AN2 u2 (.Y(n2), .A(n1), .A(b), .B(a));\n"
       "  IV u3 (.A(n2), .Z(a));\n"
       "  OR2 u4 (.Y(n4), .Y(n5), .A(n1), .B(n2));\n"
       "  AN3 u5 (.Y(n6), .B(a));\n"
       "  FD1 r1 (.Y(n7), .Q(n8), .a(n6), .CP(clk));\n"
       "  assign y = n5;\n"
       "  assign q = n8;\n"
       "endmodule\n",
       "bad-pin@4: cell 'IV' has no pin 'Z'\n"
       "bad-pin@4: instance 'u3' lacks output pin .Y\n"
       "undriven-fanin@6: pin .A of instance 'u5' is unconnected\n"
       "undriven-fanin@6: pin .C of instance 'u5' is unconnected\n"
       "bad-pin@7: cell 'FD1' has no pin 'Y'\n"
       "bad-pin@7: cell 'FD1' has no pin 'a'\n"
       "undriven-fanin@7: pin .D of instance 'r1' is unconnected\n"
       "module m\n"
       "0 INPUT a\n"
       "1 INPUT b\n"
       "2 ND2 u1 0 1\n"
       "3 AN2 u2 2 0\n"
       "4 OR2 u4 2 3\n"
       "5 AN3 u5 6 0 6\n"
       "6 TIE0 TIE0_U6\n"
       "7 FD1 r1 6\n"
       "out y=4\n"
       "out q=7\n"},
      {"net driven by an instance and a constant assign",
       "module m (input clk, input a, output y);\n"
       "  IV u1 (.Y(n), .A(a));\n"
       "  assign n = 1'b0;\n"
       "  assign a = 1'b1;\n"
       "  assign n = 1'b1;\n"
       "  assign y = n;\n"
       "endmodule\n",
       "multi-driven@4: net 'a' has multiple drivers\n"
       "multi-driven@5: net 'n' has multiple drivers\n"
       "multi-driven@2: net 'n' has multiple drivers (instance 'u1')\n"
       "module m\n"
       "0 INPUT a\n"
       "1 TIE0 TIE0_U1\n"
       "2 IV u1 0\n"
       "out y=1\n"},
      {"repeated input and output ports",
       "module m (input clk, input a, input a, input clk, output y, "
       "output y);\n"
       "  IV u1 (.Y(n), .A(a));\n"
       "  assign y = n;\n"
       "endmodule\n",
       "module m\n"
       "0 INPUT a\n"
       "1 INPUT a\n"
       "2 IV u1 1\n"
       "out y=2\n"
       "out y=2\n"},
      {"alias chain, first alias wins, driver beats alias, alias cycle",
       "module m (input clk, input a, output y, output z);\n"
       "  IV u1 (.Y(n), .A(a));\n"
       "  assign y = p;\n"
       "  assign p = q;\n"
       "  assign q = n;\n"
       "  assign q = a;\n"
       "  assign n = a;\n"
       "  assign z = r;\n"
       "  assign r = s;\n"
       "  assign s = r;\n"
       "  AN2 u2 (.Y(w), .A(p), .B(s));\n"
       "endmodule\n",
       "undriven-fanin@11: net 's' has no driver\n"
       "undriven-fanin@1: net 'z' has no driver\n"
       "module m\n"
       "0 INPUT a\n"
       "1 IV u1 0\n"
       "2 AN2 u2 1 3\n"
       "3 TIE0 TIE0_U3\n"
       "out y=1\n"
       "out z=3\n"},
      {"alias chain one hop inside the guard", alias_chain(1022),
       "module chain\n"
       "0 INPUT a\n"
       "1 IV u1 0\n"
       "out y=1\n"},
      {"alias chain one hop past the guard", alias_chain(1023),
       "undriven-fanin@1: net 'y' has no driver\n"
       "module chain\n"
       "0 INPUT a\n"
       "1 IV u1 0\n"
       "2 TIE0 TIE0_U2\n"
       "out y=2\n"},
      {"punctuation and a constant literal as nets",
       "module m (input clk, input a, output y);\n"
       "  AN2 u1 (.Y(n), .A((), .B(1'b0));\n"
       "  assign 1'b0 = 1'b1;\n"
       "  assign y = n;\n"
       "endmodule\n",
       "undriven-fanin@2: net '(' has no driver\n"
       "module m\n"
       "0 INPUT a\n"
       "1 TIE1 TIE1_U1\n"
       "2 AN2 u1 3 1\n"
       "3 TIE0 TIE0_U3\n"
       "out y=2\n"},
      {"eof inside a pin list",
       "module m (input clk, input a, output y);\n"
       "  IV u1 (.Y(n), .A(",
       "throws: verilog parse error (line -1): expected ')', got '<eof>'"},
      {"eof before endmodule",
       "module m (input clk, input a, output y);\n"
       "  IV u1 (.Y(n), .A(a));\n",
       "throws: verilog parse error (line -1): unexpected end of file (missing endmodule?), got '<eof>'"},
      {"empty text", "",
       "throws: verilog parse error (line -1): expected 'module', got '<eof>'"},
      {"text after endmodule",
       "module m (input clk, input a, output y);\n"
       "  IV u1 (.Y(n), .A(a));\n"
       "  assign y = n;\n"
       "endmodule\n"
       "garbage ((( /* never closed\n",
       "module m\n"
       "0 INPUT a\n"
       "1 IV u1 0\n"
       "out y=1\n"},
  };
}

TEST(VerilogParser, MalformedInputsMatchRecordedPins) {
  for (const PinCase& c : malformed_cases()) {
    const std::string got = collect_outcome(c.text);
    EXPECT_EQ(got, c.expected) << c.name << "; pin: " << cpp_literal(got);
  }
}

/// A 1,030-link alias chain c0 -> c1 -> ... -> c1030 (driven), read by one
/// instance at its head c0 and one at c10, in the given order.
std::string chain_with_two_readers(bool head_first) {
  std::string text =
      "module chain (input clk, input a, output y, output z);\n"
      "  IV u1 (.Y(c1030), .A(a));\n";
  const std::string head = "  IV uh (.Y(y), .A(c0));\n";
  const std::string inner = "  IV ui (.Y(z), .A(c10));\n";
  text += head_first ? head + inner : inner + head;
  for (int k = 0; k < 1030; ++k)
    text += "  assign c" + std::to_string(k) + " = c" +
            std::to_string(k + 1) + ";\n";
  return text + "endmodule\n";
}

// The head is 1,030 alias steps from its driver, past the 1,024-hop limit,
// and stays undriven; c10 is 1,020 steps away and resolves. A chain is
// walked once and memoised, so this must hold whichever reference is
// resolved first.
TEST(VerilogParser, AliasChainLimitHoldsPerReferenceInEitherOrder) {
  for (const bool head_first : {true, false}) {
    const VerilogParse parse =
        parse_verilog_collect(chain_with_two_readers(head_first));
    ASSERT_EQ(parse.issues.size(), 1u) << head_first;
    EXPECT_EQ(parse.issues[0].rule, "undriven-fanin");
    EXPECT_EQ(parse.issues[0].message, "net 'c0' has no driver");
    const Netlist& nl = parse.netlist;
    NodeId u1 = kNoNode, uh = kNoNode, ui = kNoNode;
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      const std::string& name = nl.node(id).name;
      if (name == "u1") u1 = id;
      if (name == "uh") uh = id;
      if (name == "ui") ui = id;
    }
    ASSERT_NE(u1, kNoNode);
    ASSERT_NE(uh, kNoNode);
    ASSERT_NE(ui, kNoNode);
    EXPECT_EQ(nl.fanins(ui)[0], u1) << head_first;
    EXPECT_EQ(nl.kind(nl.fanins(uh)[0]), CellKind::kConst0) << head_first;
  }
}

// ---- the size limit ---------------------------------------------------------

/// An endless stream of spaces: a reader must stop at the limit.
class EndlessSpaces : public std::streambuf {
 protected:
  int_type underflow() override {
    std::memset(chunk_, ' ', sizeof chunk_);
    setg(chunk_, chunk_, chunk_ + sizeof chunk_);
    return traits_type::to_int_type(' ');
  }

 private:
  char chunk_[4096];
};

TEST(VerilogLimit, OneByteOverTheLimitThrowsTheTypedError) {
  const std::string text(kMaxVerilogBytes + 1, ' ');
  try {
    parse_verilog_collect(text);
    FAIL() << "expected VerilogLimitError";
  } catch (const VerilogLimitError& e) {
    EXPECT_STREQ(e.what(),
                 "verilog text of 67108865 bytes exceeds the limit of "
                 "67108864 bytes");
  }
  EXPECT_THROW(parse_verilog(text), VerilogLimitError);
  // A stream is refused as it passes the limit, never read whole.
  EndlessSpaces endless;
  std::istream is(&endless);
  try {
    parse_verilog_collect(is);
    FAIL() << "expected VerilogLimitError";
  } catch (const VerilogLimitError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" bytes exceeds the limit of 67108864 bytes"),
              std::string::npos)
        << what;
  }
}

TEST(VerilogLimit, TextOfExactlyTheLimitParsesAsUsual) {
  const std::string exported = to_verilog(sample());
  const std::size_t tail = exported.rfind("endmodule");
  ASSERT_NE(tail, std::string::npos);
  // The same module, whitespace before `endmodule` filling it to the limit.
  std::string text = exported.substr(0, tail);
  text.resize(kMaxVerilogBytes - (exported.size() - tail), ' ');
  text += exported.substr(tail);
  ASSERT_EQ(text.size(), kMaxVerilogBytes);
  const VerilogParse parse = parse_verilog_collect(text);
  EXPECT_TRUE(parse.ok());
  EXPECT_EQ(to_verilog(parse.netlist), exported);
}

}  // namespace
}  // namespace fcrit::netlist
