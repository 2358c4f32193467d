// Signal-statistics estimators for the §3.1 node features:
//   - intrinsic state probability  P(node = 1), P(node = 0) = 1 - P1
//   - intrinsic transition probability  P(node(t) != node(t+1))
//
// Two estimators are provided: a simulation-based one (golden workload run
// over the packed simulator, counting across cycles and lanes) and an
// analytic COP-style propagation that assumes independent inputs and
// iterates sequential feedback to a fixpoint. The simulation estimator is
// the default for dataset generation; the analytic one serves as a fast
// cross-check and is compared against it in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::sim {

struct SignalStats {
  std::vector<double> p1;            // per NodeId
  std::vector<double> p_transition;  // per NodeId
};

/// Cycles simulated before estimate_by_simulation starts counting, so
/// reset transients are excluded.
inline constexpr int kStatsSkipCycles = 4;

/// Monte-Carlo estimate across `cycles` clock cycles (after the
/// kStatsSkipCycles skipped ones) and all 64 lanes.
SignalStats estimate_by_simulation(const netlist::Netlist& nl,
                                   const StimulusSpec& spec,
                                   std::uint64_t seed, int cycles);

/// Analytic signal-probability propagation (independence assumption).
/// `pi_p1[i]` is P(1) for netlist input i; DFF probabilities iterate up to
/// 50 times, until the largest change drops below 1e-6.
std::vector<double> estimate_p1_analytic(const netlist::Netlist& nl,
                                         const std::vector<double>& pi_p1);

/// Analytic switching-activity propagation: per-node transition
/// probability under spatial independence and lag-1 temporal independence
/// per input (each input i toggles with probability `pi_toggle[i]`
/// regardless of its current value; stationary P1 = pi_p1[i]). Exact on
/// trees; an estimate under reconvergence, like all COP-style methods.
/// Sequential feedback iterates to a fixpoint as in estimate_p1_analytic.
struct AnalyticActivity {
  std::vector<double> p1;
  std::vector<double> p_transition;
};
AnalyticActivity estimate_activity_analytic(
    const netlist::Netlist& nl, const std::vector<double>& pi_p1,
    const std::vector<double>& pi_toggle);

}  // namespace fcrit::sim
