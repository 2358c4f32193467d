#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/graphir/graph.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/bench_format.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/obs/json.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit::lint {
namespace {

using netlist::CellKind;
using netlist::kNoNode;
using netlist::Netlist;
using netlist::NodeId;

bool has_rule(const LintReport& r, std::string_view rule) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule_id == rule; });
}

const Diagnostic& first_of(const LintReport& r, std::string_view rule) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.rule_id == rule) return d;
  throw std::runtime_error("no diagnostic with rule " + std::string(rule));
}

/// A well-formed baseline circuit: in -> inv -> dff -> out.
Netlist clean_circuit() {
  Netlist nl("clean");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "u_inv");
  const NodeId ff = nl.add_gate(CellKind::kDff, {g}, "r_q");
  nl.add_output("q", ff);
  return nl;
}

TEST(LintNetlist, CleanCircuitHasNoFindings) {
  const LintReport r = lint_netlist(clean_circuit());
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(r.target_name, "clean");
}

TEST(LintNetlist, CombinationalLoopDetectedWithCyclePath) {
  Netlist nl("looped");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(CellKind::kInv, {kNoNode}, "u_loop1");
  const NodeId g2 = nl.add_gate(CellKind::kAnd2, {g1, a}, "u_loop2");
  nl.set_fanin(g1, 0, g2);
  nl.add_output("y", g2);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "comb-loop")) << r.to_string();
  const Diagnostic& d = first_of(r, "comb-loop");
  EXPECT_EQ(d.severity, Severity::kError);
  // The message names the full cycle path.
  EXPECT_NE(d.message.find("u_loop1"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("u_loop2"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("->"), std::string::npos) << d.message;
  EXPECT_GE(r.errors(), 1u);
}

TEST(LintNetlist, SequentialLoopIsNotCombinational) {
  // Classic toggle: dff -> inv -> dff. Legal, no comb-loop finding.
  Netlist nl("toggle");
  const NodeId ff = nl.add_gate(CellKind::kDff, {kNoNode}, "r_t");
  const NodeId inv = nl.add_gate(CellKind::kInv, {ff}, "u_n");
  nl.set_fanin(ff, 0, inv);
  nl.add_output("q", ff);

  const LintReport r = lint_netlist(nl);
  EXPECT_FALSE(has_rule(r, "comb-loop")) << r.to_string();
}

TEST(LintNetlist, UndrivenFaninDetected) {
  Netlist nl("undriven");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, kNoNode}, "u_open");
  nl.add_output("y", g);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "undriven-fanin")) << r.to_string();
  const Diagnostic& d = first_of(r, "undriven-fanin");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.node_name, "u_open");
  EXPECT_EQ(d.node, g);
}

TEST(LintNetlist, DuplicateInstanceNameDetected) {
  Netlist nl("dup");
  const NodeId a = nl.add_input("a");
  nl.add_gate(CellKind::kInv, {a}, "u_same");
  const NodeId g2 = nl.add_gate(CellKind::kBuf, {a}, "u_same");
  nl.add_output("y", g2);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "duplicate-name")) << r.to_string();
  const Diagnostic& d = first_of(r, "duplicate-name");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.node_name, "u_same");
}

TEST(LintNetlist, DuplicateOutputPortDetected) {
  Netlist nl("dupport");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "u1");
  nl.add_output("y", g);
  nl.add_output("y", a);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "duplicate-name")) << r.to_string();
  EXPECT_EQ(first_of(r, "duplicate-name").node_name, "y");
}

TEST(LintNetlist, DeadGateAndDeadConeAreDistinct) {
  Netlist nl("dead");
  const NodeId a = nl.add_input("a");
  const NodeId live = nl.add_gate(CellKind::kInv, {a}, "u_live");
  // u_cone feeds only u_tip; neither reaches the output.
  const NodeId cone = nl.add_gate(CellKind::kBuf, {a}, "u_cone");
  nl.add_gate(CellKind::kInv, {cone}, "u_tip");
  nl.add_output("y", live);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "dead-gate")) << r.to_string();
  ASSERT_TRUE(has_rule(r, "dead-cone")) << r.to_string();
  EXPECT_EQ(first_of(r, "dead-gate").node_name, "u_tip");
  EXPECT_EQ(first_of(r, "dead-gate").severity, Severity::kWarning);
  EXPECT_EQ(first_of(r, "dead-cone").node_name, "u_cone");
  EXPECT_EQ(first_of(r, "dead-cone").severity, Severity::kWarning);
  EXPECT_EQ(r.errors(), 0u);
}

TEST(LintNetlist, InputUnreachableAndConstFold) {
  Netlist nl("consty");
  nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId g = nl.add_gate(CellKind::kInv, {c0}, "u_tied");
  nl.add_output("y", g);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "input-unreachable")) << r.to_string();
  EXPECT_EQ(first_of(r, "input-unreachable").node_name, "u_tied");
  ASSERT_TRUE(has_rule(r, "const-fold")) << r.to_string();
  const Diagnostic& cf = first_of(r, "const-fold");
  EXPECT_EQ(cf.severity, Severity::kNote);
  EXPECT_EQ(cf.node_name, "u_tied");
}

TEST(LintNetlist, DffSelfLoopDetected) {
  Netlist nl("stuck");
  const NodeId ff = nl.add_gate(CellKind::kDff, {kNoNode}, "r_stuck");
  nl.set_fanin(ff, 0, ff);
  nl.add_output("q", ff);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "dff-self-loop")) << r.to_string();
  const Diagnostic& d = first_of(r, "dff-self-loop");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.node_name, "r_stuck");
}

TEST(LintNetlist, ResetConeNotesUninfluencedFlops) {
  Netlist nl("rsty");
  const NodeId rst = nl.add_input("rst");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, rst}, "u_g");
  const NodeId covered = nl.add_gate(CellKind::kDff, {g}, "r_cov");
  const NodeId floating = nl.add_gate(CellKind::kDff, {a}, "r_free");
  nl.add_output("q0", covered);
  nl.add_output("q1", floating);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "reset-cone")) << r.to_string();
  const Diagnostic& d = first_of(r, "reset-cone");
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_EQ(d.node_name, "r_free");
  // Only the uncovered flop is flagged.
  EXPECT_EQ(r.count(Severity::kNote), 1u);
}

TEST(LintNetlist, ResetConeSeesThroughControllingConstant) {
  // rst reaches r_q structurally, but only through AND(rst, 0), which no
  // reset toggle can move: the dataflow closure flags the flop that plain
  // forward reachability would call covered.
  Netlist nl("rst_blocked");
  const NodeId rst = nl.add_input("rst");
  const NodeId a = nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId k = nl.add_gate(CellKind::kAnd2, {rst, c0}, "u_k");
  const NodeId d = nl.add_gate(CellKind::kOr2, {k, a}, "u_d");
  const NodeId ff = nl.add_gate(CellKind::kDff, {d}, "r_q");
  nl.add_output("q", ff);

  const LintReport r = lint_netlist(nl);
  ASSERT_TRUE(has_rule(r, "reset-cone")) << r.to_string();
  const Diagnostic& diag = first_of(r, "reset-cone");
  EXPECT_EQ(diag.severity, Severity::kNote);
  EXPECT_EQ(diag.node_name, "r_q");
  EXPECT_NE(diag.message.find("(static dataflow)"), std::string::npos)
      << diag.message;
}

TEST(LintParser, MultiDrivenNetCarriesRuleAndLine) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n"
      "  IV u1 (.Y(n), .A(a));\n"
      "  IV u2 (.Y(n), .A(a));\n"
      "  assign y = n;\nendmodule\n";
  const auto parsed = netlist::parse_verilog_collect(text);
  ASSERT_FALSE(parsed.ok());

  LintReport r;
  add_parse_issues(parsed.issues, r);
  ASSERT_TRUE(has_rule(r, "multi-driven")) << r.to_string();
  const Diagnostic& d = first_of(r, "multi-driven");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.line, 4);
  // The repaired netlist still lints structurally.
  EXPECT_NO_THROW(parsed.netlist.validate());
}

TEST(LintParser, UnknownCellAndBadPinCollected) {
  const std::string text =
      "module m (input clk, input a, output y);\n"
      "  wire n;\n"
      "  BOGUS u1 (.Y(n), .A(a));\n"
      "  IV u2 (.Y(n), .Z(a));\n"
      "  assign y = n;\nendmodule\n";
  const auto parsed = netlist::parse_verilog_collect(text);

  LintReport r;
  add_parse_issues(parsed.issues, r);
  EXPECT_TRUE(has_rule(r, "unknown-cell")) << r.to_string();
  EXPECT_TRUE(has_rule(r, "bad-pin")) << r.to_string();
  EXPECT_EQ(first_of(r, "unknown-cell").line, 3);
  EXPECT_NO_THROW(parsed.netlist.validate());
}

TEST(LintGraphIr, ConsistentArtifactsAreClean) {
  const Netlist nl = clean_circuit();
  const auto graph = graphir::build_graph(nl);
  const ml::Matrix features(graph.num_nodes, 3);
  const std::vector<int> labels(nl.num_nodes(), 0);
  const graphir::Split split{.train = {0, 1}, .val = {2}};

  LintReport r;
  lint_graphir(nl,
               {.graph = &graph, .features = &features, .labels = &labels,
                .split = &split},
               r);
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(LintGraphIr, DimensionDriftIsAnError) {
  const Netlist nl = clean_circuit();
  const auto graph = graphir::build_graph(nl);
  const ml::Matrix features(graph.num_nodes + 2, 3);  // drifted rows
  std::vector<int> labels(nl.num_nodes(), 0);
  labels[0] = 7;  // out of {0, 1}

  LintReport r;
  lint_graphir(nl, {.graph = &graph, .features = &features, .labels = &labels},
               r);
  ASSERT_TRUE(has_rule(r, "graphir-consistency")) << r.to_string();
  EXPECT_GE(r.errors(), 2u);  // feature rows + bad label value
}

TEST(LintGraphIr, SplitLeakAndCoverage) {
  const Netlist nl = clean_circuit();
  const graphir::Split leaky{.train = {0, 1}, .val = {1, 99}};

  LintReport r;
  lint_graphir(nl, {.split = &leaky}, r);
  ASSERT_TRUE(has_rule(r, "split-leak")) << r.to_string();
  const Diagnostic& leak = first_of(r, "split-leak");
  EXPECT_EQ(leak.severity, Severity::kError);
  // The first leaked node is named in the message.
  EXPECT_NE(leak.message.find(nl.node(1).name), std::string::npos)
      << leak.message;
  ASSERT_TRUE(has_rule(r, "split-coverage")) << r.to_string();
  EXPECT_EQ(first_of(r, "split-coverage").severity, Severity::kWarning);
}

TEST(LintReportRendering, JsonIsStrictlyValid) {
  Netlist nl("json \"quoted\"\\design");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, kNoNode}, "u \"q\"");
  nl.add_output("y", g);

  const LintReport r = lint_netlist(nl);
  ASSERT_FALSE(r.clean());
  const std::string json = r.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
}

TEST(LintReportRendering, TextSummaryCountsBySeverity) {
  Netlist nl("mix");
  const NodeId a = nl.add_input("a");
  const NodeId c1 = nl.add_const(true);
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, c1}, "u_c");  // note
  nl.add_gate(CellKind::kInv, {a}, "u_dead");                     // warning
  nl.add_output("y", g);

  const LintReport r = lint_netlist(nl);
  EXPECT_EQ(r.errors(), 0u);
  EXPECT_EQ(r.warnings(), 1u);
  EXPECT_EQ(r.notes(), 1u);
  EXPECT_EQ(r.count_at_least(Severity::kWarning), 1u);
  EXPECT_EQ(r.count_at_least(Severity::kNote), 2u);
  const std::string text = r.to_string();
  EXPECT_NE(text.find("warning[dead-gate] 'u_dead'"), std::string::npos)
      << text;
  EXPECT_NE(text.find("note[const-fold] 'u_c'"), std::string::npos) << text;
  EXPECT_NE(text.find("0 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos)
      << text;
}

TEST(LintError, CarriesFullReport) {
  Netlist nl("broken");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, kNoNode}, "u_open");
  nl.add_output("y", g);

  LintReport r = lint_netlist(nl);
  ASSERT_GE(r.errors(), 1u);
  const LintError err(std::move(r));
  EXPECT_EQ(err.report().target_name, "broken");
  EXPECT_NE(std::string(err.what()).find("undriven-fanin"),
            std::string::npos)
      << err.what();
}

TEST(LintPreflight, IsTheErrorSubsetOfTheFullPass) {
  // Every error rule fires, next to warnings and notes the preflight skips.
  Netlist nl("mixed");
  const NodeId a = nl.add_input("a");
  const NodeId c = nl.add_const(true);
  const NodeId open = nl.add_gate(CellKind::kAnd2, {a, kNoNode}, "u_open");
  const NodeId g1 = nl.add_gate(CellKind::kInv, {kNoNode}, "u_loop");
  const NodeId g2 = nl.add_gate(CellKind::kAnd2, {g1, a}, "u_loop");
  nl.set_fanin(g1, 0, g2);
  nl.add_gate(CellKind::kOr2, {a, c}, "u_dead");
  const NodeId ff = nl.add_gate(CellKind::kDff, {kNoNode}, "r_self");
  nl.set_fanin(ff, 0, ff);
  nl.add_output("y", g2);
  nl.add_output("z", open);
  nl.add_output("q", ff);

  const LintReport full = lint_netlist(nl);
  const LintReport gate = preflight(nl);
  for (const char* rule : {"undriven-fanin", "duplicate-name", "comb-loop"})
    EXPECT_TRUE(has_rule(gate, rule)) << rule << "\n" << gate.to_string();
  ASSERT_GT(full.warnings() + full.notes(), 0u) << full.to_string();
  LintReport errors;
  errors.target_name = full.target_name;
  for (const Diagnostic& d : full.diagnostics)
    if (d.severity == Severity::kError) errors.add(d);
  EXPECT_EQ(gate.to_json(), errors.to_json());
  EXPECT_EQ(gate.target_name, "mixed");
  EXPECT_TRUE(preflight(clean_circuit()).clean());
}

TEST(LintCatalog, EveryEmittedRuleIsRegistered) {
  const auto& catalog = rule_catalog();
  const std::vector<std::string> expected = {
      "comb-loop",       "undriven-fanin", "multi-driven",
      "unknown-cell",    "bad-pin",        "duplicate-name",
      "dead-gate",       "dead-cone",      "input-unreachable",
      "dff-self-loop",   "const-fold",     "reset-cone",
      "graphir-consistency", "split-leak", "split-coverage",
      "parse-error"};
  for (const std::string& id : expected) {
    EXPECT_TRUE(std::any_of(catalog.begin(), catalog.end(),
                            [&](const RuleInfo& info) { return info.id == id; }))
        << "missing rule " << id;
  }
}

TEST(LintDesigns, BuiltInDesignsHaveNoErrors) {
  for (const auto& name : designs::design_names()) {
    const auto design = designs::build_design(name);
    const LintReport r = lint_netlist(design.netlist);
    EXPECT_EQ(r.errors(), 0u) << name << ":\n" << r.to_string();
  }
}

/// Dead-cone notes and literal ties: AND(x, 0), XOR(a, a), and a BUF/INV
/// chain off `b` whose taps feed side fanins, so consumers of `u_g` and
/// `u_h` are pinned by a constant or by a net meeting its own complement.
Netlist ties_circuit() {
  Netlist nl("ties");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.add_input("x");
  const NodeId rst = nl.add_input("rst");
  const NodeId c0 = nl.add_const(false);
  const NodeId k = nl.add_gate(CellKind::kAnd2, {x, c0}, "u_and0");
  const NodeId z = nl.add_gate(CellKind::kXor2, {a, a}, "u_xor_aa");
  const NodeId b1 = nl.add_gate(CellKind::kBuf, {b}, "u_b1");
  const NodeId i1 = nl.add_gate(CellKind::kInv, {b1}, "u_i1");
  const NodeId b2 = nl.add_gate(CellKind::kBuf, {i1}, "u_b2");
  const NodeId i2 = nl.add_gate(CellKind::kInv, {b2}, "u_i2");
  const NodeId g = nl.add_gate(CellKind::kOr2, {a, x}, "u_g");
  const NodeId c1 = nl.add_gate(CellKind::kAnd3, {g, b1, i1}, "u_c1");
  const NodeId c2 = nl.add_gate(CellKind::kOr3, {g, i2, b2}, "u_c2");
  const NodeId h = nl.add_gate(CellKind::kBuf, {a}, "u_h");
  const NodeId k2 = nl.add_gate(CellKind::kAnd2, {h, c0}, "u_k2");
  const NodeId m = nl.add_gate(CellKind::kMux2, {i2, b1, a}, "u_mux");
  const NodeId f = nl.add_gate(CellKind::kDff, {m}, "r_f");
  const NodeId r = nl.add_gate(CellKind::kAnd2, {rst, k}, "u_rst_k");
  const NodeId fr = nl.add_gate(CellKind::kDff, {r}, "r_rst");
  const NodeId d1 = nl.add_gate(CellKind::kBuf, {a}, "u_dead1");
  nl.add_gate(CellKind::kInv, {d1}, "u_dead2");
  nl.add_gate(CellKind::kInv, {x}, "u_dangling");
  nl.add_output("y0", nl.add_gate(CellKind::kOr2, {c1, c2}, "u_y0"));
  nl.add_output("y1", nl.add_gate(CellKind::kXor2, {z, k2}, "u_y1"));
  nl.add_output("y2", nl.add_gate(CellKind::kAnd2, {f, fr}, "u_y2"));
  return nl;
}

/// fnv1a64 of each report's to_json(). The rule tests above check one
/// finding each; these pins hold every finding, severity and message byte
/// for byte, through the structural rules, the dataflow-backed ones and
/// (on the .bench re-parses) inputs whose node order differs.
TEST(LintNetlist, ReportsMatchPinnedHash) {
  auto hash_json = [](const std::string& json) {
    return pins::hash_bytes(std::span<const char>(json));
  };
  auto hash = [&](const Netlist& nl) {
    return hash_json(lint_netlist(nl).to_json());
  };
  const std::pair<const char*, std::uint64_t> designs_pins[] = {
      {"sdram_ctrl", 0xb65c26087a55d930ULL},
      {"or1200_if", 0xf619ea1c56ba611bULL},
      {"or1200_icfsm", 0xb98229efa8aabe34ULL},
      {"or1200_genpc", 0x19461946793c9ed6ULL},
      {"ee_zonal", 0x2789fbf2057a4783ULL},
  };
  const std::pair<const char*, std::uint64_t> bench_pins[] = {
      {"sdram_ctrl", 0xb030db93096d772fULL},
      {"or1200_if", 0x9e80674f675f26b1ULL},
      {"or1200_icfsm", 0xd30f3ef8679c3524ULL},
      {"or1200_genpc", 0x0ae7f94af8ff6505ULL},
      {"ee_zonal", 0xd63b42ab5f0446b7ULL},
  };
  for (const auto& [name, pinned] : designs_pins) {
    const std::uint64_t got = hash(designs::build_design(name).netlist);
    EXPECT_EQ(got, pinned) << name << ": got 0x" << std::hex << got;
  }
  for (const auto& [name, pinned] : bench_pins) {
    const designs::Design d = designs::build_design(name);
    const std::uint64_t got =
        hash(netlist::parse_bench(netlist::to_bench(d.netlist), name));
    EXPECT_EQ(got, pinned) << name << ".bench: got 0x" << std::hex << got;
  }

  // 24 random circuits, deep and shallow, with and without state.
  std::string reports;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const designs::Design d = designs::build_random_circuit(
        {.num_inputs = 4 + static_cast<int>(seed % 5),
         .num_gates = 40 + 15 * static_cast<int>(seed),
         .num_flops = static_cast<int>(seed % 4) * 6,
         .num_outputs = 2 + static_cast<int>(seed % 6),
         .reuse_bias = seed % 2 == 0 ? 0.8 : 0.3,
         .seed = seed});
    reports += lint_netlist(d.netlist).to_json();
  }
  const std::uint64_t random_got = hash_json(reports);
  EXPECT_EQ(random_got, 0xc21eb7ccd75cde12ULL) << "random: got 0x" << std::hex << random_got;

  // Inputs renamed rst*/reset*, so reset-cone runs its dataflow closure.
  designs::Design rsty = designs::build_random_circuit(
      {.num_inputs = 8, .num_gates = 300, .num_flops = 24,
       .num_outputs = 6, .seed = 25});
  rsty.netlist.rename(rsty.netlist.inputs()[0], "rst");
  rsty.netlist.rename(rsty.netlist.inputs()[3], "reset_n");
  const std::uint64_t rst_got = hash(rsty.netlist);
  EXPECT_EQ(rst_got, 0x100d3759ab9e196bULL) << "rst: got 0x" << std::hex << rst_got;

  const Netlist ties = ties_circuit();
  const LintReport ties_report = lint_netlist(ties);
  EXPECT_TRUE(has_rule(ties_report, "dead-cone")) << ties_report.to_string();
  const std::uint64_t ties_got = hash_json(ties_report.to_json());
  EXPECT_EQ(ties_got, 0x83e477ec73db5491ULL) << "ties: got 0x" << std::hex << ties_got
                              << "\n" << ties_report.to_string();
}

}  // namespace
}  // namespace fcrit::lint
