// Fault-campaign engine trajectory + Section 1 resource-savings claim.
//
// Primary output: the speedup trajectory table of the campaign hot path on
// every built-in design —
//   naive        full levelized re-simulation, no cone restriction
//   cone         levelized sweep restricted to the fault's static cone
//                (the pre-frontier production method, baseline)
//   frontier     event-driven divergence-frontier resim, one fault per pass
//   frontier@Nt  the production default: the frontier engine with
//                collapse-equivalence sharing, at 1/2/4 threads
// Every leg's verdicts must equal the first leg's bit for bit, or the
// bench exits 1 (the `fcrit check` campaign oracle proves the same
// equivalence on fuzzed circuits).
//
// Secondary output (full mode only): the paper's Section 1 pitch — run FI
// on a subset, train the GCN, predict the rest — quantified per design.
//
// --quick: trajectory only, largest design only, shorter campaign, and no
// naive leg (about 20x the cone leg's time), so every leg is checked
// against the cone leg; fault_sim_test's ConeMatchesNaiveOnRealDesign and
// the `fcrit check` fault oracle check cone against naive. CI runs this
// mode and keeps the printed table.
#include <cstring>

#include "bench/bench_common.hpp"
#include "src/util/text.hpp"

namespace {

using namespace fcrit;

struct Leg {
  std::string label;
  fault::CampaignConfig config;
};

/// Verdict fields must agree across every leg (cone_size differs between
/// naive and cone legs by design, so it is not compared here).
bool same_verdicts(const fault::CampaignResult& a,
                   const fault::CampaignResult& b) {
  if (a.faults.size() != b.faults.size()) return false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const auto& x = a.faults[i];
    const auto& y = b.faults[i];
    if (x.fault.node != y.fault.node ||
        x.fault.stuck_value != y.fault.stuck_value ||
        x.dangerous_lanes != y.dangerous_lanes ||
        x.detected_lanes != y.detected_lanes ||
        x.mismatch_cycles != y.mismatch_cycles ||
        x.first_detect_cycle != y.first_detect_cycle)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_header(quick ? "FI campaign engine trajectory (quick)"
                            : "FI campaign engine trajectory + Section 1 "
                              "resource claim");

  const int cycles = quick ? 128 : 256;

  // Pick the designs: the paper's evaluation set plus the ee_zonal scale
  // design, or just the largest of those (by node count) in quick mode.
  std::vector<designs::Design> targets;
  auto names = designs::design_names();
  names.push_back("ee_zonal");
  for (const auto& name : names)
    targets.push_back(designs::build_design(name));
  if (quick) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < targets.size(); ++i)
      if (targets[i].netlist.num_nodes() > targets[best].netlist.num_nodes())
        best = i;
    targets = {std::move(targets[best])};
  }

  core::TextTable table({"Design", "Nodes", "Faults", "naive (s)", "cone (s)",
                         "frontier (s)", "frontier@1t (s)", "frontier@4t (s)",
                         "f@4t vs cone", "simulated", "early-exit %"});

  bool all_identical = true;
  for (const auto& design : targets) {
    fault::CampaignConfig base;
    base.cycles = cycles;
    base.seed = 7;
    base.num_threads = 1;

    std::vector<Leg> legs;
    {
      if (!quick) {
        Leg naive{"naive", base};
        naive.config.engine = fault::FiEngine::kLevelized;
        naive.config.use_cone_restriction = false;
        legs.push_back(naive);
      }
      Leg cone{"cone", base};
      cone.config.engine = fault::FiEngine::kLevelized;
      Leg frontier{"frontier", base};
      frontier.config.engine = fault::FiEngine::kFrontier;
      frontier.config.collapse_equivalent = false;
      legs.push_back(cone);
      legs.push_back(frontier);
      for (const int threads : {1, 2, 4}) {
        Leg shared{"frontier@" + std::to_string(threads) + "t", base};
        shared.config.engine = fault::FiEngine::kFrontier;
        shared.config.num_threads = threads;
        legs.push_back(shared);
      }
    }

    std::vector<fault::CampaignResult> results;
    std::vector<double> seconds;
    for (const Leg& leg : legs) {
      fault::FaultCampaign campaign(design.netlist, design.stimulus,
                                    leg.config);
      const auto r = campaign.run_all();
      seconds.push_back(r.fault_seconds);
      results.push_back(std::move(r));
    }

    for (std::size_t i = 1; i < results.size(); ++i) {
      if (!same_verdicts(results[0], results[i])) {
        std::fprintf(stderr,
                     "bench_fi_speedup: %s leg '%s' diverged from %s!\n",
                     design.name.c_str(), legs[i].label.c_str(),
                     legs[0].label.c_str());
        all_identical = false;
      }
    }

    const std::size_t cone = quick ? 0 : 1;
    const double cone_s = seconds[cone];
    const double f4_s = seconds.back();
    const auto& f4 = results.back();
    const double total_cycles =
        static_cast<double>(f4.simulated_faults) * cycles;
    table.add_row(
        {design.name, std::to_string(design.netlist.num_nodes()),
         std::to_string(f4.faults.size()),
         quick ? "-" : util::format_double(seconds[0], 3),
         util::format_double(cone_s, 3),
         util::format_double(seconds[cone + 1], 3),
         util::format_double(seconds[cone + 2], 3),
         util::format_double(f4_s, 3),
         util::format_double(f4_s > 0 ? cone_s / f4_s : 0.0, 1) + "x",
         std::to_string(f4.simulated_faults),
         util::format_double(total_cycles > 0
                                 ? 100.0 * static_cast<double>(
                                               f4.early_exit_cycles) /
                                       total_cycles
                                 : 0.0,
                             1)});
  }

  std::printf("\ncampaign engine trajectory (fault_seconds, golden excluded)\n%s\n",
              table.to_string().c_str());
  std::printf("verdict equality across all legs: %s\n",
              all_identical ? "bit-identical" : "DIVERGED");

  if (!quick) {
    // Section 1 claim: FI on a subset + GCN inference vs. exhaustive FI.
    core::FaultCriticalityAnalyzer analyzer([] {
      auto cfg = bench::standard_config();
      cfg.train_baselines = false;
      cfg.train_regressor = false;
      return cfg;
    }());
    core::TextTable ml({"Design", "Faults", "Full FI (s)",
                        "FI for 20% val (s)", "GCN inference (s)",
                        "Speedup on val", "GCN val acc (%)"});
    for (const auto& name : designs::design_names()) {
      auto r = analyzer.analyze_design(name);
      const double full_fi = r.fi_seconds;
      const double val_share =
          full_fi * static_cast<double>(r.split.val.size()) /
          static_cast<double>(r.dataset.size());
      const double speedup =
          r.inference_seconds > 0 ? val_share / r.inference_seconds : 0.0;
      ml.add_row({name, std::to_string(r.campaign.faults.size()),
                  util::format_double(full_fi, 3),
                  util::format_double(val_share, 3),
                  util::format_double(r.inference_seconds, 4),
                  util::format_double(speedup, 1) + "x",
                  util::format_double(100.0 * r.gcn_eval.val_accuracy, 2)});
    }
    std::printf("\n%s\n", ml.to_string().c_str());
    std::printf(
        "reading: once trained, classifying unseen nodes by GCN inference is\n"
        "orders of magnitude cheaper than fault-injecting them, which is the\n"
        "resource/time saving the paper's introduction claims.\n");
  }
  return all_identical ? 0 : 1;
}
