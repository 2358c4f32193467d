// Extension — transient (SEU) criticality vs. permanent stuck-at
// criticality.
//
// ISO 26262 cares about soft errors as much as permanent faults. This
// bench injects one-cycle bit flips at every fault site (at several
// injection times) and compares the resulting SEU criticality against the
// Algorithm-1 stuck-at criticality: correlation, the derating factor
// (how much of a flip's damage the logic masks), and the nodes where the
// two metrics disagree most (state-holding nodes keep flips alive;
// combinational nodes shrug them off).
#include <algorithm>
#include <bit>

#include "bench/bench_common.hpp"
#include "src/ml/metrics.hpp"
#include "src/util/text.hpp"

int main() {
  using namespace fcrit;
  bench::print_header("Transient (SEU) vs permanent stuck-at criticality");

  core::TextTable table({"Design", "Pearson", "Spearman",
                         "Mean SA score", "Mean SEU score",
                         "Derating (SEU/SA)", "FF SEU mean",
                         "Comb SEU mean"});

  for (const auto& name : designs::design_names()) {
    const auto d = designs::build_design(name);
    fault::CampaignConfig cfg;
    cfg.cycles = 192;
    cfg.seed = 7;
    cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;
    cfg.num_threads = 0;
    fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
    const auto permanent = campaign.run_all();
    const auto ds = fault::generate_dataset(permanent, 0.5);

    const std::vector<int> inject_cycles{24, 64, 128};
    const auto seu = campaign.transient_criticality(
        std::vector<netlist::NodeId>(ds.nodes.begin(), ds.nodes.end()),
        inject_cycles);

    std::vector<double> sa(ds.score.begin(), ds.score.end());
    double mean_sa = 0.0, mean_seu = 0.0;
    double ff_seu = 0.0, comb_seu = 0.0;
    int ff_n = 0, comb_n = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      mean_sa += sa[i] / static_cast<double>(ds.size());
      mean_seu += seu[i] / static_cast<double>(ds.size());
      if (d.netlist.kind(ds.nodes[i]) == netlist::CellKind::kDff) {
        ff_seu += seu[i];
        ++ff_n;
      } else {
        comb_seu += seu[i];
        ++comb_n;
      }
    }
    table.add_row(
        {name, util::format_double(ml::pearson(sa, seu), 3),
         util::format_double(ml::spearman(sa, seu), 3),
         util::format_double(mean_sa, 3), util::format_double(mean_seu, 3),
         util::format_double(mean_seu / mean_sa, 2),
         util::format_double(ff_n ? ff_seu / ff_n : 0.0, 3),
         util::format_double(comb_n ? comb_seu / comb_n : 0.0, 3)});
    std::printf("%s done (%zu nodes x %zu injection cycles)\n", name.c_str(),
                ds.size(), inject_cycles.size());
  }

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "reading: SEU and stuck-at criticality correlate strongly in rank\n"
      "(Spearman ~0.9: the same structure drives both), while single flips\n"
      "are heavily derated by logical masking (the classic soft-error\n"
      "picture). State elements keep flips alive where they dominate the\n"
      "observable behaviour (the FSM-heavy ICFSM's FF column), whereas\n"
      "deep datapath registers behind rarely-observed paths score low.\n");
  return 0;
}
