#include "src/sim/stimulus.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "src/designs/designs.hpp"
#include "tests/pin_hash.hpp"

namespace fcrit::sim {
namespace {

netlist::Netlist three_input_netlist() {
  netlist::Netlist nl;
  nl.add_input("rst");
  nl.add_input("req");
  nl.add_input("addr_0");
  return nl;
}

TEST(Stimulus, DeterministicForSameSeed) {
  const auto nl = three_input_netlist();
  StimulusSpec spec;
  StimulusGenerator a(nl, spec, 42), b(nl, spec, 42);
  std::vector<std::uint64_t> wa, wb;
  for (int t = 0; t < 20; ++t) {
    a.next_cycle(wa);
    b.next_cycle(wb);
    EXPECT_EQ(wa, wb) << "cycle " << t;
  }
}

TEST(Stimulus, RestartReplaysExactly) {
  const auto nl = three_input_netlist();
  StimulusSpec spec;
  StimulusGenerator gen(nl, spec, 7);
  std::vector<std::vector<std::uint64_t>> first;
  std::vector<std::uint64_t> w;
  for (int t = 0; t < 10; ++t) {
    gen.next_cycle(w);
    first.push_back(w);
  }
  gen.restart();
  EXPECT_EQ(gen.cycle(), 0);
  for (int t = 0; t < 10; ++t) {
    gen.next_cycle(w);
    EXPECT_EQ(w, first[static_cast<std::size_t>(t)]) << "cycle " << t;
  }
}

TEST(Stimulus, HoldCyclesPinValue) {
  const auto nl = three_input_netlist();
  StimulusSpec spec;
  spec.profiles["rst"] = {.p1 = 0.5, .hold_cycles = 3, .hold_value = true};
  StimulusGenerator gen(nl, spec, 1);
  std::vector<std::uint64_t> w;
  for (int t = 0; t < 3; ++t) {
    gen.next_cycle(w);
    EXPECT_EQ(w[0], ~0ULL) << "cycle " << t;  // rst held high in all lanes
  }
}

TEST(Stimulus, ZeroProbabilityStaysLow) {
  const auto nl = three_input_netlist();
  StimulusSpec spec;
  spec.default_profile.p1 = 0.0;
  StimulusGenerator gen(nl, spec, 3);
  std::vector<std::uint64_t> w;
  for (int t = 0; t < 50; ++t) {
    gen.next_cycle(w);
    for (const auto word : w) EXPECT_EQ(word, 0u);
  }
}

TEST(Stimulus, OneProbabilitySticksHighAfterToggle) {
  const auto nl = three_input_netlist();
  StimulusSpec spec;
  spec.default_profile.p1 = 1.0;
  spec.p1_scale_min = 1.0;
  spec.p1_scale_max = 1.0;
  spec.activity_min = 1.0;
  spec.activity_max = 1.0;
  StimulusGenerator gen(nl, spec, 3);
  std::vector<std::uint64_t> w;
  gen.next_cycle(w);
  for (const auto word : w) EXPECT_EQ(word, ~0ULL);
}

TEST(Stimulus, PrefixMatchCoversBusMembers) {
  netlist::Netlist nl;
  nl.add_input("addr_0");
  nl.add_input("addr_1");
  nl.add_input("other");
  StimulusSpec spec;
  spec.profiles["addr"] = {.p1 = 0.0, .hold_cycles = 0, .hold_value = false};
  spec.default_profile.p1 = 1.0;
  StimulusGenerator gen(nl, spec, 5);
  EXPECT_EQ(gen.profile(0).p1, 0.0);
  EXPECT_EQ(gen.profile(1).p1, 0.0);
  EXPECT_EQ(gen.profile(2).p1, 1.0);
}

TEST(Stimulus, LongestPrefixWins) {
  netlist::Netlist nl;
  nl.add_input("addr_0");
  StimulusSpec spec;
  spec.profiles["addr"] = {.p1 = 0.1, .hold_cycles = 0, .hold_value = false};
  spec.profiles["addr_0"] = {.p1 = 0.9, .hold_cycles = 0, .hold_value = false};
  StimulusGenerator gen(nl, spec, 5);
  EXPECT_EQ(gen.profile(0).p1, 0.9);
}

TEST(Stimulus, EmpiricalRateTracksP1) {
  netlist::Netlist nl;
  nl.add_input("x");
  StimulusSpec spec;
  spec.default_profile.p1 = 0.25;
  spec.p1_scale_min = 1.0;
  spec.p1_scale_max = 1.0;
  spec.activity_min = 1.0;  // re-randomize every cycle
  spec.activity_max = 1.0;
  StimulusGenerator gen(nl, spec, 11);
  std::vector<std::uint64_t> w;
  std::uint64_t ones = 0;
  const int cycles = 2000;
  for (int t = 0; t < cycles; ++t) {
    gen.next_cycle(w);
    ones += static_cast<std::uint64_t>(std::popcount(w[0]));
  }
  const double rate = static_cast<double>(ones) / (64.0 * cycles);
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Stimulus, LowActivityLanesToggleLess) {
  netlist::Netlist nl;
  nl.add_input("x");
  StimulusSpec spec;
  spec.default_profile.p1 = 0.5;
  spec.activity_min = 0.05;
  spec.activity_max = 1.0;
  StimulusGenerator gen(nl, spec, 13);
  std::vector<std::uint64_t> w;
  std::uint64_t prev = 0;
  int toggles_low = 0, toggles_high = 0;
  const int cycles = 3000;
  for (int t = 0; t < cycles; ++t) {
    gen.next_cycle(w);
    if (t > 0) {
      const std::uint64_t x = w[0] ^ prev;
      toggles_low += static_cast<int>(x & 1);          // lane 0: min activity
      toggles_high += static_cast<int>((x >> 63) & 1); // lane 63: max
    }
    prev = w[0];
  }
  EXPECT_LT(toggles_low * 4, toggles_high);
}

/// fnv1a64 of every input word of `cycles` cycles from seed 7.
std::uint64_t stimulus_hash(const netlist::Netlist& nl,
                            const StimulusSpec& spec, int cycles) {
  StimulusGenerator gen(nl, spec, 7);
  std::vector<std::uint64_t> all, w;
  for (int t = 0; t < cycles; ++t) {
    gen.next_cycle(w);
    all.insert(all.end(), w.begin(), w.end());
  }
  return pins::hash_bytes(std::span<const std::uint64_t>(all));
}

// The exact stimulus stream over 300 cycles: the default spec, out-of-range
// doubles a bundle may carry (1e300 and -3 clamp; an infinite activity span
// makes lane 0's activity NaN), and every built-in design's own spec (hold
// cycles, prefix profiles, or1200_icfsm's activity and p1_scale).
TEST(Stimulus, WordsMatchPinnedHash) {
  StimulusSpec extreme;
  extreme.default_profile.p1 = 1e300;
  extreme.profiles["addr"] = {.p1 = -3.0, .hold_cycles = 0,
                              .hold_value = false};
  extreme.profiles["req"] = {.p1 = 5e-324, .hold_cycles = 0,
                             .hold_value = false};
  extreme.activity_min = -1e308;
  extreme.activity_max = 1e308;
  extreme.p1_scale_min = -3.0;
  extreme.p1_scale_max = 1e300;

  const std::pair<const char*, std::uint64_t> cases[] = {
      {"default", 0xe706b80afd45cd4aULL},
      {"extreme", 0x6b2ecd37a6d20b43ULL},
      {"sdram_ctrl", 0xe643d7a6ecc90fa5ULL},
      {"or1200_if", 0xb70e535647609149ULL},
      {"or1200_icfsm", 0x2069f298c6d7f15fULL},
      {"or1200_genpc", 0xe54c0bdd7d015b89ULL},
      {"ee_zonal", 0x80a028cd10696928ULL},
  };
  for (const auto& [name, pinned] : cases) {
    const std::string label = name;
    designs::Design d = designs::build_design(
        label == "default" || label == "extreme" ? "sdram_ctrl" : label);
    if (label == "default") d.stimulus = StimulusSpec{};
    if (label == "extreme") d.stimulus = extreme;
    const std::uint64_t got = stimulus_hash(d.netlist, d.stimulus, 300);
    EXPECT_EQ(got, pinned) << label << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace fcrit::sim
