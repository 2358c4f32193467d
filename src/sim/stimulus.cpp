#include "src/sim/stimulus.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "src/util/text.hpp"

namespace fcrit::sim {

namespace {

const InputProfile& resolve_profile(const StimulusSpec& spec,
                                    const std::string& name) {
  const InputProfile* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [prefix, profile] : spec.profiles) {
    if (util::starts_with(name, prefix) && prefix.size() >= best_len) {
      best = &profile;
      best_len = prefix.size();
    }
  }
  return best ? *best : spec.default_profile;
}

/// One value word: lane L is the draw `(rng.next() >> 11) < threshold[L]`,
/// exactly rng.next_bool(p) for the probability the threshold encodes.
std::uint64_t draw_word(util::Rng& rng, const std::uint64_t* threshold) {
  std::uint64_t w = 0;
  for (int l = 0; l < kLanes; ++l)
    w |= static_cast<std::uint64_t>((rng.next() >> 11) < threshold[l]) << l;
  return w;
}

}  // namespace

StimulusGenerator::StimulusGenerator(const netlist::Netlist& nl,
                                     const StimulusSpec& spec,
                                     std::uint64_t seed)
    : seed_(seed), rng_(seed) {
  for (const netlist::NodeId in : nl.inputs())
    profiles_.push_back(resolve_profile(spec, nl.node(in).name));
  prev_.assign(profiles_.size(), 0);

  std::array<double, kLanes> lane_p1_scale{};
  for (int l = 0; l < kLanes; ++l) {
    const double t = static_cast<double>(l) / (kLanes - 1);
    activity_threshold_[l] = util::Rng::bool_threshold(
        spec.activity_min + (spec.activity_max - spec.activity_min) * t);
    // Golden-ratio sequence decorrelates the probability scale from the
    // activity ramp, so activity and bias vary independently across lanes.
    const double u = std::fmod(0.5 + 0.6180339887498949 * l, 1.0);
    lane_p1_scale[l] =
        spec.p1_scale_min + (spec.p1_scale_max - spec.p1_scale_min) * u;
  }

  // One threshold block per distinct p1 (keyed by its bits), shared by
  // every input that resolves to it.
  std::unordered_map<std::uint64_t, std::size_t> block_of;
  for (const InputProfile& p : profiles_) {
    const auto [it, added] = block_of.try_emplace(
        std::bit_cast<std::uint64_t>(p.p1), p1_threshold_.size());
    threshold_offset_.push_back(it->second);
    if (!added) continue;
    for (int l = 0; l < kLanes; ++l)
      p1_threshold_.push_back(util::Rng::bool_threshold(
          std::min(1.0, std::max(0.0, p.p1 * lane_p1_scale[l]))));
  }
}

void StimulusGenerator::restart() {
  rng_ = util::Rng(seed_);
  std::fill(prev_.begin(), prev_.end(), 0);
  cycle_ = 0;
}

void StimulusGenerator::next_cycle(std::vector<std::uint64_t>& words) {
  words.resize(profiles_.size());
  util::Rng rng = rng_;  // a local copy keeps the state in registers

  // Per-lane toggle-enable mask: lane L re-randomizes this cycle with
  // probability activity(L). One mask shared by all inputs per cycle keeps
  // correlated bursts of activity, as real workload phases do.
  const std::uint64_t toggle_mask = draw_word(rng, activity_threshold_.data());

  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    const InputProfile& p = profiles_[i];
    std::uint64_t w;
    if (cycle_ < p.hold_cycles) {
      w = p.hold_value ? ~0ULL : 0;
    } else {
      const std::uint64_t candidate =
          draw_word(rng, p1_threshold_.data() + threshold_offset_[i]);
      w = (prev_[i] & ~toggle_mask) | (candidate & toggle_mask);
    }
    prev_[i] = w;
    words[i] = w;
  }
  rng_ = rng;
  ++cycle_;
}

}  // namespace fcrit::sim
