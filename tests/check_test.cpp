// The differential-oracle harness: scalar-vs-packed agreement on real and
// random circuits, fault-oracle triple agreement, the dataflow
// certificate, the parse oracle, serve-vs-pipeline bit identity, the
// deterministic fuzz tranche, and — crucially — the planted defects that
// prove the oracles are able to fail.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/check/differential.hpp"
#include "src/check/front_end_ref.hpp"
#include "src/check/harness.hpp"
#include "src/check/scalar_sim.hpp"
#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/graphir/graph.hpp"
#include "src/rtl/builder.hpp"
#include "src/serve/bundle.hpp"

namespace fcrit::check {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

sim::StimulusSpec random_spec() {
  sim::StimulusSpec spec;
  spec.default_profile.p1 = 0.5;
  return spec;
}

designs::Design random_design(std::uint64_t seed, int gates = 80,
                              int flops = 8) {
  designs::RandomCircuitConfig cfg;
  cfg.num_inputs = 6;
  cfg.num_gates = gates;
  cfg.num_flops = flops;
  cfg.num_outputs = 5;
  cfg.seed = seed;
  return designs::build_random_circuit(cfg);
}

/// a ^ b observed at a PO: the minimal circuit on which ScalarBug::kXorAsOr
/// must diverge (unless a == b == 0 forever, which the stimulus excludes).
designs::Design xor_design() {
  designs::Design d;
  d.name = "xor_pair";
  rtl::Builder b(d.netlist, 1);
  const NodeId a = b.input("a");
  const NodeId c = b.input("b");
  b.output("y", b.xor2(a, c));
  d.netlist.validate();
  d.stimulus = random_spec();
  return d;
}

/// A 4-bit counter: state changes every cycle, so ScalarBug::kStaleDff
/// (flops never clocking) must diverge.
designs::Design counter_design() {
  designs::Design d;
  d.name = "counter4";
  rtl::Builder b(d.netlist, 1);
  const rtl::Bus cnt = b.reg_placeholder_bus(4);
  b.connect_reg_bus(cnt, b.increment(cnt));
  b.output_bus("q", cnt);
  d.netlist.validate();
  d.stimulus = random_spec();
  return d;
}

TEST(ScalarVsPacked, AgreesOnRegisteredDesigns) {
  for (const char* name : {"or1200_icfsm", "or1200_genpc", "ee_zonal"}) {
    const auto d = designs::build_design(name);
    EXPECT_EQ(diff_packed_vs_scalar(d, 48, 42), "") << name;
  }
}

TEST(ScalarVsPacked, AgreesOnRandomCircuits) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const auto d = random_design(seed);
    EXPECT_EQ(diff_packed_vs_scalar(d, 32, seed), "") << "seed " << seed;
  }
}

TEST(ScalarVsPacked, AgreesOnPureCombinationalCircuit) {
  const auto d = random_design(7, /*gates=*/60, /*flops=*/0);
  EXPECT_EQ(diff_packed_vs_scalar(d, 16, 7), "");
}

TEST(ScalarVsPacked, PlantedXorDefectIsCaught) {
  const auto msg = diff_packed_vs_scalar(xor_design(), 16, 3,
                                         ScalarBug::kXorAsOr);
  ASSERT_NE(msg, "");
  EXPECT_NE(msg.find("packed-vs-scalar"), std::string::npos);
}

TEST(ScalarVsPacked, PlantedStaleDffDefectIsCaught) {
  EXPECT_NE(diff_packed_vs_scalar(counter_design(), 16, 3,
                                  ScalarBug::kStaleDff),
            "");
}

TEST(FaultOracles, AgreeOnCounter) {
  fault::CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 9;
  EXPECT_EQ(diff_fault_oracles(counter_design(), cfg, /*max_faults=*/0), "");
}

TEST(FaultOracles, AgreeOnRandomCircuits) {
  fault::CampaignConfig cfg;
  cfg.cycles = 32;
  for (std::uint64_t seed : {5u, 6u}) {
    cfg.seed = seed;
    EXPECT_EQ(diff_fault_oracles(random_design(seed), cfg, 12), "")
        << "seed " << seed;
  }
}

TEST(FaultOracles, AgreeOnRegisteredDesign) {
  fault::CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 4;
  const auto d = designs::build_design("or1200_icfsm");
  EXPECT_EQ(diff_fault_oracles(d, cfg, 10), "");
}

TEST(FaultOracles, PlantedNaiveDefectIsCaught) {
  // The naive leg's verdict reaches the comparison, so a wrong naive sweep
  // fails the oracle even though the cone and injected legs agree.
  fault::CampaignConfig cfg;
  cfg.cycles = 32;
  cfg.seed = 5;
  const auto msg = diff_fault_oracles(random_design(5), cfg, 8,
                                      FaultBug::kNaiveMismatchOffByOne);
  ASSERT_NE(msg, "");
  EXPECT_NE(msg.find("fault-oracle"), std::string::npos) << msg;
  EXPECT_NE(msg.find("naive="), std::string::npos) << msg;
  EXPECT_NE(msg.find("mismatch_cycles"), std::string::npos) << msg;
}

TEST(CampaignOracle, AgreesOnCounter) {
  fault::CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 9;
  EXPECT_EQ(
      diff_campaign_equivalence(counter_design(), cfg, /*max_faults=*/0), "");
}

TEST(CampaignOracle, AgreesOnRandomCircuits) {
  fault::CampaignConfig cfg;
  cfg.cycles = 32;
  for (std::uint64_t seed : {5u, 6u}) {
    cfg.seed = seed;
    EXPECT_EQ(diff_campaign_equivalence(random_design(seed), cfg, 8), "")
        << "seed " << seed;
  }
}

TEST(CampaignOracle, AgreesOnRegisteredDesign) {
  fault::CampaignConfig cfg;
  cfg.cycles = 48;
  cfg.seed = 4;
  const auto d = designs::build_design("or1200_icfsm");
  EXPECT_EQ(diff_campaign_equivalence(d, cfg, 8), "");
}

TEST(CampaignOracle, PlantedMismatchDefectIsCaught) {
  fault::CampaignConfig cfg;
  cfg.cycles = 32;
  cfg.seed = 5;
  const auto msg = diff_campaign_equivalence(
      random_design(5), cfg, 8, CampaignBug::kMismatchOffByOne);
  ASSERT_NE(msg, "");
  EXPECT_NE(msg.find("campaign-oracle"), std::string::npos);
  EXPECT_NE(msg.find("mismatch_cycles"), std::string::npos);
}

TEST(CampaignOracle, PlantedDetectionDefectIsCaught) {
  fault::CampaignConfig cfg;
  cfg.cycles = 32;
  cfg.seed = 5;
  const auto msg = diff_campaign_equivalence(
      random_design(5), cfg, 8, CampaignBug::kDropDetection);
  ASSERT_NE(msg, "");
  EXPECT_NE(msg.find("campaign-oracle"), std::string::npos);
  EXPECT_NE(msg.find("detected_lanes"), std::string::npos);
}

TEST(DataflowOracle, CleanOnRegisteredAndRandomDesigns) {
  EXPECT_EQ(diff_dataflow_facts(designs::build_design("or1200_icfsm")), "");
  for (std::uint64_t seed : {5u, 6u})
    EXPECT_EQ(diff_dataflow_facts(random_design(seed)), "") << "seed " << seed;
}

TEST(ParseOracle, AgreesOnRegisteredAndRandomDesigns) {
  for (const char* name : {"or1200_icfsm", "or1200_genpc", "sdram_ctrl"})
    EXPECT_EQ(diff_verilog_parse(designs::build_design(name), 11), "")
        << name;
  for (const std::uint64_t seed : {2ULL, 9ULL, 21ULL})
    EXPECT_EQ(diff_verilog_parse(random_design(seed), seed), "") << seed;
}

TEST(ServeOracle, MatchesDirectScoring) {
  const std::string scratch =
      (std::filesystem::path(::testing::TempDir()) / "fcrit_check_serve")
          .string();
  const auto d = random_design(17, /*gates=*/50, /*flops=*/4);
  EXPECT_EQ(diff_serve_vs_pipeline(d, scratch, 17), "");
}

TEST(FrontEndReferences, StreamedHashAndLinearGraphMatchOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    designs::RandomCircuitConfig cfg;
    cfg.num_inputs = 1 + static_cast<int>(seed % 6);
    cfg.num_gates = static_cast<int>(1 + seed * 7);
    cfg.num_flops = static_cast<int>(seed % 9);
    cfg.num_outputs = 1 + static_cast<int>(seed % 3);
    cfg.reuse_bias = 0.1 * static_cast<double>(seed % 10);
    cfg.seed = seed;
    const Netlist nl = designs::build_random_circuit(cfg).netlist;
    EXPECT_EQ(serve::netlist_content_hash(nl), reference_content_hash(nl))
        << "seed " << seed;
    EXPECT_EQ(diff_graphs(graphir::build_graph(nl), reference_build_graph(nl)),
              "")
        << "seed " << seed;
  }
}

TEST(FrontEndReferences, OutputPortNamedLikeAWireHashesItsOwnDriver) {
  // Port n_1 is driven by u2, but the export names u1's wire n_1 too, so
  // the round trip resolves the port to u1: the reference hashes the
  // re-driven netlist, the streamed hash the netlist as built.
  Netlist nl("renamed");
  const NodeId a = nl.add_input("a");
  const NodeId u1 = nl.add_gate(CellKind::kInv, {a}, "u1");
  const NodeId u2 = nl.add_gate(CellKind::kInv, {u1}, "u2");
  nl.add_output("n_1", u2);
  Netlist redriven("renamed");
  const NodeId ra = redriven.add_input("a");
  const NodeId r1 = redriven.add_gate(CellKind::kInv, {ra}, "u1");
  redriven.add_gate(CellKind::kInv, {r1}, "u2");
  redriven.add_output("n_1", r1);
  EXPECT_EQ(reference_content_hash(nl), reference_content_hash(redriven));
  EXPECT_NE(serve::netlist_content_hash(nl),
            serve::netlist_content_hash(redriven));
  EXPECT_EQ(serve::netlist_content_hash(redriven),
            reference_content_hash(redriven));
}

CheckConfig tranche_config() {
  CheckConfig cfg;
  cfg.trials = 4;
  cfg.seed = 21;
  cfg.cycles = 24;
  cfg.gates = 60;
  cfg.flops = 6;
  cfg.inputs = 5;
  cfg.outputs = 4;
  cfg.max_faults = 6;
  cfg.serve_every = 0;  // serve oracle covered separately above
  return cfg;
}

TEST(Harness, DeterministicTrancheRunsClean) {
  const auto report = run_checks(tranche_config());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.trials_run, 4);
  EXPECT_EQ(report.packed_checks, 4);
  EXPECT_EQ(report.fault_checks, 4);
  EXPECT_EQ(report.campaign_checks, 4);
  EXPECT_EQ(report.dataflow_checks, 4);
  EXPECT_EQ(report.parse_checks, 4);
  const ParseSplit& split = report.parse_split;
  EXPECT_EQ(split.clean + split.with_issues + split.throws,
            4 * (kParseMutants + 1));
  // The token-level mutants keep a share of the inputs parseable, so the
  // issue paths are reached, not only the syntax errors.
  EXPECT_GT(split.clean, 4);  // at least the four unmutated exports
  EXPECT_GT(split.with_issues, 0);
  EXPECT_GT(split.throws, 0);
  EXPECT_EQ(report.serve_checks, 0);
}

TEST(Harness, PlantedParseDefectFailsAndShrinks) {
  CheckConfig cfg = tranche_config();
  cfg.parse_bug = ParseBug::kIssueLineOffByOne;
  const auto report = run_checks(cfg);
  ASSERT_FALSE(report.ok());
  const Divergence& d = report.divergences.front();
  EXPECT_EQ(d.oracle, "parse");
  // The report names the input's edits, e.g. "input 3 [drop-net@230]".
  EXPECT_NE(d.message.find("parse-oracle: input "), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("["), std::string::npos) << d.message;
  EXPECT_LE(d.circuit.num_gates, cfg.gates);

  // The shrunk recipe reproduces under the same seed, and only with the
  // planted defect.
  const auto shrunk = designs::build_random_circuit(d.circuit);
  EXPECT_NE(diff_verilog_parse(shrunk, d.seed, ParseBug::kIssueLineOffByOne),
            "");
  EXPECT_EQ(diff_verilog_parse(shrunk, d.seed), "");
}

TEST(Harness, PlantedCampaignDefectFailsAndShrinks) {
  CheckConfig cfg = tranche_config();
  cfg.campaign_bug = CampaignBug::kMismatchOffByOne;
  const auto report = run_checks(cfg);
  ASSERT_FALSE(report.ok());
  const Divergence& d = report.divergences.front();
  EXPECT_EQ(d.oracle, "campaign");
  EXPECT_NE(d.message.find("campaign-oracle"), std::string::npos);

  // The shrunk reproduction recipe must still diverge under the same bug.
  const auto shrunk = designs::build_random_circuit(d.circuit);
  fault::CampaignConfig fc;
  fc.cycles = d.cycles;
  fc.seed = d.seed;
  fc.num_threads = 1;
  EXPECT_NE(diff_campaign_equivalence(shrunk, fc, cfg.max_faults,
                                      CampaignBug::kMismatchOffByOne),
            "");
}

TEST(Harness, PlantedFaultDefectFailsAndShrinks) {
  CheckConfig cfg = tranche_config();
  cfg.fault_bug = FaultBug::kNaiveMismatchOffByOne;
  const auto report = run_checks(cfg);
  ASSERT_FALSE(report.ok());
  const Divergence& d = report.divergences.front();
  EXPECT_EQ(d.oracle, "fault");
  EXPECT_NE(d.message.find("naive="), std::string::npos) << d.message;
  EXPECT_LE(d.circuit.num_gates, cfg.gates);

  // The shrunk recipe reproduces under the same seed, and only with the
  // planted defect.
  const auto shrunk = designs::build_random_circuit(d.circuit);
  fault::CampaignConfig fc;
  fc.cycles = d.cycles;
  fc.seed = d.seed;
  fc.num_threads = 1;
  EXPECT_NE(diff_fault_oracles(shrunk, fc, cfg.max_faults,
                               FaultBug::kNaiveMismatchOffByOne),
            "");
  EXPECT_EQ(diff_fault_oracles(shrunk, fc, cfg.max_faults), "");
}

TEST(Harness, CampaignOracleCanBeDisabled) {
  CheckConfig cfg = tranche_config();
  cfg.campaign_every = 0;
  cfg.campaign_bug = CampaignBug::kMismatchOffByOne;  // must never trigger
  const auto report = run_checks(cfg);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.campaign_checks, 0);
}

TEST(Harness, PlantedDefectFailsAndShrinksReproducibly) {
  CheckConfig cfg = tranche_config();
  cfg.scalar_bug = ScalarBug::kXorAsOr;  // broken simulator shim
  const auto report = run_checks(cfg);
  ASSERT_FALSE(report.ok());
  const Divergence& d = report.divergences.front();
  EXPECT_EQ(d.oracle, "packed-vs-scalar");
  EXPECT_NE(d.message, "");
  EXPECT_FALSE(d.netlist_verilog.empty());
  EXPECT_LE(d.circuit.num_gates, cfg.gates);
  EXPECT_LE(d.cycles, cfg.cycles);

  // The report is a reproduction recipe: the same oracle on the same
  // (shrunk) circuit and seed must diverge again.
  const auto shrunk = designs::build_random_circuit(d.circuit);
  EXPECT_NE(
      diff_packed_vs_scalar(shrunk, d.cycles, d.seed, ScalarBug::kXorAsOr),
      "");

  const auto text = format_divergence(d);
  EXPECT_NE(text.find("DIVERGENCE"), std::string::npos);
  EXPECT_NE(text.find("reproduce:"), std::string::npos);
}

TEST(Harness, ShrinkCanBeDisabled) {
  CheckConfig cfg = tranche_config();
  cfg.scalar_bug = ScalarBug::kXorAsOr;
  cfg.shrink = false;
  cfg.dump_netlist = false;
  const auto report = run_checks(cfg);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergences.front().shrink_steps, 0);
  EXPECT_TRUE(report.divergences.front().netlist_verilog.empty());
}

TEST(Harness, StopsAtFirstDivergence) {
  CheckConfig cfg = tranche_config();
  cfg.scalar_bug = ScalarBug::kStaleDff;
  const auto report = run_checks(cfg);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.divergences.size(), 1u);
  EXPECT_LE(report.trials_run, cfg.trials);
}

TEST(ScalarSimulator, RejectsCombinationalCycle) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  // g = AND(a, h); h = BUF(g): a combinational loop, assembled via the
  // parser-facing set_fanin escape hatch (builders refuse to make one).
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, netlist::kNoNode}, "g");
  const NodeId h = nl.add_gate(CellKind::kBuf, {g}, "h");
  nl.set_fanin(g, 1, h);
  EXPECT_THROW(ScalarSimulator sim(nl), std::runtime_error);
}

}  // namespace
}  // namespace fcrit::check
