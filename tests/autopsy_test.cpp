#include "src/fault/autopsy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "src/designs/designs.hpp"
#include "src/rtl/builder.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit::fault {
namespace {

using netlist::NodeId;

struct Pipeline2 {
  netlist::Netlist nl;
  NodeId g = 0, ff1 = 0, ff2 = 0, orphan = 0;

  // a -> inv(g) -> ff1 -> ff2 -> output; plus an orphan gate.
  Pipeline2() {
    rtl::Builder b(nl, 1);
    const NodeId a = b.input("a");
    g = b.nand2(a, a);
    ff1 = b.dff(g);
    ff2 = b.dff(ff1);
    b.output("y", ff2);
    orphan = b.inv(a);
    nl.validate();
  }
};

sim::StimulusSpec spec() {
  sim::StimulusSpec s;
  s.default_profile.p1 = 0.5;
  return s;
}

TEST(Autopsy, TracksPathAndLatencyThroughFlops) {
  Pipeline2 c;
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(c.nl, spec(), cfg);
  campaign.run_golden();

  const Autopsy a = run_autopsy(campaign, c.nl, {c.g, true});
  EXPECT_TRUE(a.detected);
  // Two flop crossings delay detection by two cycles at least.
  EXPECT_GE(a.first_cycle, 1);
  ASSERT_GE(a.propagation_path.size(), 3u);
  EXPECT_EQ(a.propagation_path.front(), c.nl.node(c.g).name);
  EXPECT_EQ(a.propagation_path.back(), c.nl.node(c.ff2).name);
  EXPECT_EQ(a.path_flop_crossings, 2);
  ASSERT_EQ(a.corrupted_outputs.size(), 1u);
  EXPECT_EQ(a.corrupted_outputs[0], "y");
}

TEST(Autopsy, UndetectedFaultReportsCleanly) {
  Pipeline2 c;
  CampaignConfig cfg;
  cfg.cycles = 16;
  FaultCampaign campaign(c.nl, spec(), cfg);
  campaign.run_golden();
  const Autopsy a = run_autopsy(campaign, c.nl, {c.orphan, false});
  EXPECT_FALSE(a.detected);
  EXPECT_EQ(a.first_cycle, -1);
  const std::string text = a.to_string();
  EXPECT_NE(text.find("never corrupted"), std::string::npos);
}

TEST(Autopsy, AgreesWithCampaignVerdict) {
  const auto d = designs::build_or1200_icfsm();
  CampaignConfig cfg;
  cfg.cycles = 64;
  FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const auto faults = full_fault_list(d.netlist);
  for (std::size_t i = 0; i < faults.size(); i += 17) {
    const FaultResult fr = campaign.simulate_fault(faults[i]);
    const Autopsy a = run_autopsy(campaign, d.netlist, faults[i]);
    EXPECT_EQ(a.detected, fr.detected_lanes != 0)
        << fault_name(d.netlist, faults[i]);
    if (a.detected) {
      EXPECT_EQ(a.first_cycle, fr.first_detect_cycle);
    }
  }
}

TEST(Autopsy, RequiresGoldenTrace) {
  Pipeline2 c;
  CampaignConfig cfg;
  FaultCampaign campaign(c.nl, spec(), cfg);
  EXPECT_THROW(run_autopsy(campaign, c.nl, {c.g, false}),
               std::runtime_error);
}

TEST(Autopsy, RejectsNonSites) {
  Pipeline2 c;
  CampaignConfig cfg;
  FaultCampaign campaign(c.nl, spec(), cfg);
  campaign.run_golden();
  EXPECT_THROW(run_autopsy(campaign, c.nl, {c.nl.inputs()[0], false}),
               std::runtime_error);
}

TEST(Autopsy, TextReportIsComplete) {
  Pipeline2 c;
  CampaignConfig cfg;
  cfg.cycles = 32;
  FaultCampaign campaign(c.nl, spec(), cfg);
  campaign.run_golden();
  const Autopsy a = run_autopsy(campaign, c.nl, {c.g, false});
  const std::string text = a.to_string();
  EXPECT_NE(text.find("first corruption"), std::string::npos);
  EXPECT_NE(text.find("propagation path"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_NE(text.find("y:"), std::string::npos);
}

// fnv1a64 of every 5th fault's report at 64 cycles on the five built-ins.
// AgreesWithCampaignVerdict checks only detection and the first cycle;
// these pins also hold the lane, the corrupted outputs, the path and the
// per-output counts, byte for byte.
TEST(Autopsy, ReportsMatchPinnedHash) {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"sdram_ctrl", 0xc4cf89b746c9c486ULL},
      {"or1200_if", 0x6bea6afdea9d0d99ULL},
      {"or1200_icfsm", 0x19a489a34aeff8c6ULL},
      {"or1200_genpc", 0xaed24f079c1a19c2ULL},
      {"ee_zonal", 0x5b7dd574d5cd81daULL},
  };
  for (const auto& [name, pinned] : pins) {
    const designs::Design d = designs::build_design(name);
    CampaignConfig cfg;
    cfg.cycles = 64;
    FaultCampaign campaign(d.netlist, d.stimulus, cfg);
    campaign.run_golden();
    const auto faults = full_fault_list(d.netlist);
    std::string reports;
    for (std::size_t i = 0; i < faults.size(); i += 5)
      reports += run_autopsy(campaign, d.netlist, faults[i]).to_string();
    const std::uint64_t got =
        pins::hash_bytes(std::span<const char>(reports));
    EXPECT_EQ(got, pinned) << name << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace fcrit::fault
