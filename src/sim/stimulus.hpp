// Workload (stimulus) generation for the 64-lane packed simulator.
//
// The fault-criticality ground truth of the paper is defined over a set of
// diverse workloads (Algorithm 1 aggregates per-workload FI verdicts). Here
// each of the 64 simulator lanes is one workload. Lanes differ in activity:
// lane L only re-randomizes its inputs with probability activity(L) per
// cycle and holds them otherwise, so low-activity lanes exercise less logic
// — exactly the workload diversity that spreads node criticality scores
// over [0, 1].
//
// Per-input profiles control the 1-probability of each primary input and
// can pin an input to a fixed value for the first `hold_cycles` cycles
// (used to apply reset sequences).
//
// Every lane bit is one Rng draw compared against p. The constructor turns
// each probability into util::Rng::bool_threshold form once (per lane for
// the activity mask, per lane and distinct p1 for the inputs), so a word is
// 64 inline draws and integer compares; the draws and their order are those
// of next_bool, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/util/rng.hpp"

namespace fcrit::sim {

struct InputProfile {
  double p1 = 0.5;        // probability of driving 1 (after hold period)
  int hold_cycles = 0;    // drive `hold_value` for this many initial cycles
  bool hold_value = false;
};

struct StimulusSpec {
  /// Profile per input port name; longest matching prefix wins, so a bus
  /// "addr" entry covers addr_0..addr_31.
  std::unordered_map<std::string, InputProfile> profiles;
  InputProfile default_profile;

  /// Per-lane activity: lane L re-randomizes each input with probability
  /// lerp(activity_min, activity_max, L/63) per cycle.
  double activity_min = 0.15;
  double activity_max = 1.0;

  /// Per-lane input-probability scaling: lane L drives input i with
  /// probability clamp(p1_i * scale(L)) where scale(L) walks a deterministic
  /// low-discrepancy sequence over [p1_scale_min, p1_scale_max]. Lanes thus
  /// differ in how strongly they exercise control inputs (request rates,
  /// branch rates, ...), which is what spreads node criticality scores.
  double p1_scale_min = 0.4;
  double p1_scale_max = 1.6;
};

class StimulusGenerator {
 public:
  StimulusGenerator(const netlist::Netlist& nl, const StimulusSpec& spec,
                    std::uint64_t seed);

  std::size_t num_inputs() const { return profiles_.size(); }

  /// Restart the stream from cycle 0 with the original seed (exactly
  /// reproduces the sequence — used to replay the same workloads for golden
  /// and faulty passes).
  void restart();

  /// Fill `words[i]` with the cycle's value word for input i.
  void next_cycle(std::vector<std::uint64_t>& words);

  /// The resolved profile of input i (after prefix matching).
  const InputProfile& profile(std::size_t i) const { return profiles_[i]; }

  int cycle() const { return cycle_; }

 private:
  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<InputProfile> profiles_;  // one per PI, resolved
  std::vector<std::uint64_t> prev_;     // previous value word per PI
  // Rng::bool_threshold of activity(L), per lane L.
  std::array<std::uint64_t, kLanes> activity_threshold_{};
  // kLanes thresholds per distinct p1: clamp(p1 * scale(L)), per lane L.
  std::vector<std::uint64_t> p1_threshold_;
  std::vector<std::size_t> threshold_offset_;  // per PI, into p1_threshold_
  int cycle_ = 0;
};

}  // namespace fcrit::sim
