// fcrit — command-line front end of the fault-criticality framework.
//
//   fcrit list
//   fcrit lint    <design|netlist.v|netlist.bench> [--json] [--fail-on S]
//   fcrit stats   <design|netlist.v|netlist.bench>
//   fcrit export  <design> --format verilog|bench|dot [-o FILE]
//   fcrit sweep   <netlist.v> [-o FILE]
//   fcrit campaign <design|file> [--cycles N] [--seed S] [--fraction F]
//   fcrit analyze <design|file> [--top N] [--no-baselines] [--explain K]
//   fcrit pipeline <design|file> [...]            alias of analyze
//   fcrit scoap   <design|file> [--top N]
//   fcrit wave    <design|file> [--cycles N] [--lane L] [-o FILE]
//   fcrit autopsy <design|file> --node NAME [--sa 0|1] [--cycles N]
//   fcrit harden  <design|file> [--top K] [-o FILE]
//   fcrit pack    <design|file> -o bundle.fcm
//   fcrit score   <bundle.fcm> <design|file|@list> [--top N] [--strict]
//   fcrit serve   <bundle-dir> [--port P] [--threads T] [--cache N]
//   fcrit check   [--trials N] [--seed S] [--self-test] [...]
//
// A "design" argument is a registered name (sdram_ctrl, or1200_if,
// or1200_icfsm); anything ending in .v or .bench is parsed from disk. The
// built-in designs carry protocol-aware stimulus; parsed netlists use a
// generic profile (reset pulse on any input named rst*, uniform elsewhere).
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/check/harness.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/serve/server.hpp"
#include "src/explain/aggregate.hpp"
#include "src/explain/gnn_explainer.hpp"
#include "src/fault/collapse.hpp"
#include "src/netlist/bench_format.hpp"
#include "src/netlist/stats.hpp"
#include "src/netlist/transform.hpp"
#include "src/fault/autopsy.hpp"
#include "src/fault/report.hpp"
#include "src/graphir/graph.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/dot_export.hpp"
#include "src/netlist/harden.hpp"
#include "src/ml/serialize.hpp"
#include "src/obs/log.hpp"
#include "src/obs/request_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/sim/scoap.hpp"
#include "src/sim/vcd.hpp"
#include "src/util/parallel.hpp"
#include "src/util/text.hpp"

namespace {

using namespace fcrit;

constexpr const char* kVersion = "0.2.0";

constexpr const char* kUsageText =
    "usage: fcrit <command> [args]\n"
    "  list                              registered designs\n"
    "  lint <design|file> [--json] [--fail-on error|warn|note]\n"
    "                                    structural static analysis; exit 1\n"
    "                                    when findings reach the threshold\n"
    "  stats <design|file>               netlist statistics\n"
    "  export <design> --format F [-o FILE]   F: verilog|bench|dot\n"
    "  sweep <file> [-o FILE]            remove dead logic\n"
    "  campaign <design|file> [--cycles N] [--seed S]\n"
    "           [--fraction F] [--threads T] [--report FILE]\n"
    "  analyze <design|file> [--top N] [--no-baselines]\n"
    "           [--explain K] [--save-model FILE] [--csv FILE]\n"
    "           [--cycles N] [--epochs N] [--trace-out FILE]\n"
    "  pipeline <design|file> [...]      alias of analyze; --trace-out FILE\n"
    "                                    writes a Chrome trace of the phases\n"
    "  scoap <design|file> [--top N]     testability report\n"
    "  wave <design|file> [--cycles N] [--lane L] [-o FILE]\n"
    "                                    dump a VCD waveform\n"
    "  autopsy <design|file> --node NAME [--sa 0|1] [--cycles N]\n"
    "                                    debug one fault\n"
    "  harden <design|file> [--top K] [-o FILE]\n"
    "                                    TMR the predicted top-K\n"
    "  pack <design|file> [-o FILE.fcm] [--cycles N] [--prob-cycles N]\n"
    "           [--epochs N]             train + package a model bundle\n"
    "  score <bundle.fcm> <design|file|@list> [--top N] [--strict]\n"
    "           [--threads T]            inference only, no FI campaign\n"
    "  serve <bundle-dir> [--port P] [--threads T] [--cache N]\n"
    "        [--access-log F] [--slow-ms MS] [--trace-ring N] [--no-trace]\n"
    "                                    scoring daemon on 127.0.0.1;\n"
    "                                    replace bundles by rename\n"
    "  check [--trials N] [--seed S] [--cycles N] [--gates N] [--flops N]\n"
    "        [--inputs N] [--outputs N] [--faults N] [--serve-every K]\n"
    "        [--campaign-every K]\n"
    "        [--no-shrink] [--no-dump] [--self-test]\n"
    "                                    differential-oracle fuzzing harness\n"
    "  help | --help                     this text\n"
    "  version                           print the fcrit version\n"
    "global flags: --verbose | --quiet   log level (also FCRIT_LOG=\n"
    "                                    error|warn|info|debug|trace)\n"
    "              --jobs N              ML kernel worker threads (also\n"
    "                                    FCRIT_THREADS; 0 = all cores,\n"
    "                                    1 = serial; results are bitwise-\n"
    "                                    identical for any value)\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

bool is_file_arg(const std::string& arg) {
  return util::ends_with(arg, ".v") || util::ends_with(arg, ".bench");
}

designs::Design load_target(const std::string& arg) {
  designs::Design d = serve::load_score_target(arg);
  if (!is_file_arg(arg)) return d;
  // Generic stimulus: reset pulse on rst-like ports.
  for (const auto in_id : d.netlist.inputs()) {
    const auto& name = d.netlist.node(in_id).name;
    if (util::starts_with(name, "rst") || util::starts_with(name, "reset"))
      d.stimulus.profiles[name] = {.p1 = 0.01, .hold_cycles = 2,
                                   .hold_value = true};
  }
  return d;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (!util::starts_with(arg, "--") && arg[0] != '-') continue;
    std::string key = arg;
    std::string value = "1";
    if (i + 1 < argc && argv[i + 1][0] != '-') value = argv[++i];
    flags[key] = value;
  }
  return flags;
}

int cmd_list() {
  for (const auto& name : designs::design_names()) {
    const auto d = designs::build_design(name);
    std::printf("%-14s %s\n", name.c_str(),
                netlist::compute_stats(d.netlist).to_string().c_str());
  }
  return 0;
}

int cmd_lint(const std::string& target,
             const std::map<std::string, std::string>& flags) {
  lint::LintReport report;
  report.target_name = target;
  netlist::Netlist nl;
  bool have_netlist = false;

  auto parse_error = [&](const char* message) {
    lint::Diagnostic d;
    d.rule_id = "parse-error";
    d.severity = lint::Severity::kError;
    d.message = message;
    report.add(std::move(d));
  };

  if (!is_file_arg(target)) {
    nl = designs::build_design(target).netlist;
    have_netlist = true;
  } else {
    // A file over the reader's size limit, or one the lexer/grammar gives
    // up on, surfaces as a single parse-error finding so --json always
    // emits a report; a file that cannot be opened is fatal. A .v parses
    // leniently: semantic problems become typed findings (with their
    // source lines) and the repaired netlist is still linted structurally.
    std::string text;
    bool have_text = false;
    try {
      text = netlist::read_netlist_file(target);
      have_text = true;
    } catch (const netlist::VerilogLimitError& e) {
      parse_error(e.what());
    }
    if (have_text) {
      try {
        if (util::ends_with(target, ".v")) {
          auto parsed = netlist::parse_verilog_collect(text);
          lint::add_parse_issues(parsed.issues, report);
          nl = std::move(parsed.netlist);
        } else {
          nl = netlist::parse_bench(text);
        }
        have_netlist = true;
      } catch (const std::exception& e) {
        parse_error(e.what());
      }
    }
  }

  if (have_netlist) {
    lint::lint_netlist(nl, report);
    try {
      const auto graph = graphir::build_graph(nl);
      lint::lint_graphir(nl, {.graph = &graph}, report);
    } catch (const std::exception& e) {
      lint::Diagnostic d;
      d.rule_id = "graphir-consistency";
      d.severity = lint::Severity::kError;
      d.message = std::string("graph construction failed: ") + e.what();
      report.add(std::move(d));
    }
  }

  if (flags.contains("--json"))
    std::printf("%s\n", report.to_json().c_str());
  else
    std::printf("%s", report.to_string().c_str());

  lint::Severity threshold = lint::Severity::kError;
  if (flags.contains("--fail-on")) {
    const std::string& t = flags.at("--fail-on");
    if (t == "error")
      threshold = lint::Severity::kError;
    else if (t == "warn" || t == "warning")
      threshold = lint::Severity::kWarning;
    else if (t == "note")
      threshold = lint::Severity::kNote;
    else {
      std::fprintf(stderr, "lint: --fail-on must be error|warn|note\n");
      return 2;
    }
  }
  return report.count_at_least(threshold) > 0 ? 1 : 0;
}

int cmd_stats(const std::string& target) {
  const auto d = load_target(target);
  std::printf("%s\n", netlist::compute_stats(d.netlist).to_string().c_str());
  const auto collapsed = fault::collapse_faults(d.netlist);
  std::printf("fault universe: %zu stuck-at faults, %zu after collapsing "
              "(%.1f%%)\n",
              collapsed.original_count, collapsed.representatives.size(),
              100.0 * collapsed.collapse_ratio());
  return 0;
}

int cmd_export(const std::string& target,
               const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const auto format_it = flags.find("--format");
  const std::string format =
      format_it == flags.end() ? "verilog" : format_it->second;
  std::string text;
  if (format == "verilog")
    text = netlist::to_verilog(d.netlist);
  else if (format == "bench")
    text = netlist::to_bench(d.netlist);
  else if (format == "dot")
    text = netlist::to_dot(d.netlist);
  else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 2;
  }
  const auto out_it = flags.find("-o");
  if (out_it == flags.end()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(out_it->second);
    out << text;
    std::printf("wrote %s\n", out_it->second.c_str());
  }
  return 0;
}

int cmd_sweep(const std::string& target,
              const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const auto result = netlist::sweep(d.netlist);
  std::printf("removed %zu dead nodes (%zu -> %zu)\n", result.dropped(),
              d.netlist.num_nodes(), result.netlist.num_nodes());
  const auto out_it = flags.find("-o");
  if (out_it != flags.end()) {
    std::ofstream out(out_it->second);
    netlist::write_verilog(result.netlist, out);
    std::printf("wrote %s\n", out_it->second.c_str());
  }
  return 0;
}

int cmd_campaign(const std::string& target,
                 const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  fault::CampaignConfig cfg;
  cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;
  if (flags.contains("--cycles")) cfg.cycles = std::stoi(flags.at("--cycles"));
  if (flags.contains("--seed")) cfg.seed = std::stoull(flags.at("--seed"));
  if (flags.contains("--fraction"))
    cfg.dangerous_cycle_fraction = std::stod(flags.at("--fraction"));
  if (flags.contains("--threads"))
    cfg.num_threads = std::stoi(flags.at("--threads"));

  fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  const auto result = campaign.run_all();
  const auto ds = fault::generate_dataset(result, 0.5);
  std::printf("%s\n", ds.summary().c_str());
  std::printf("golden %.3fs, %zu faults in %.3fs\n", result.golden_seconds,
              result.faults.size(), result.fault_seconds);
  if (result.simulated_faults > 0)
    std::printf("frontier: %u simulated faults, %llu node evals, %llu "
                "quiesced fault-cycles\n",
                result.simulated_faults,
                static_cast<unsigned long long>(result.frontier_evals),
                static_cast<unsigned long long>(result.early_exit_cycles));
  std::printf("%s\n",
              fault::summarize_coverage(result).to_string().c_str());
  if (flags.contains("--report")) {
    std::ofstream out(flags.at("--report"));
    fault::write_fault_report(d.netlist, result, out);
    std::printf("wrote %s\n", flags.at("--report").c_str());
  }
  // Score histogram.
  int buckets[10] = {0};
  for (const double s : ds.score)
    ++buckets[std::min(9, static_cast<int>(s * 10))];
  std::printf("criticality score histogram (0.0 .. 1.0):");
  for (const int b : buckets) std::printf(" %d", b);
  std::printf("\n");
  return 0;
}

int cmd_analyze(const std::string& target,
                const std::map<std::string, std::string>& flags) {
  core::PipelineConfig cfg;
  if (flags.contains("--no-baselines")) cfg.train_baselines = false;
  if (flags.contains("--cycles"))
    cfg.campaign_cycles = std::stoi(flags.at("--cycles"));
  if (flags.contains("--epochs")) {
    cfg.train.epochs = std::stoi(flags.at("--epochs"));
    cfg.regressor_train.epochs = cfg.train.epochs;
  }
  if (flags.contains("--jobs"))
    cfg.jobs = util::parse_thread_count(flags.at("--jobs"));
  const bool tracing = flags.contains("--trace-out");
  if (tracing) obs::Tracer::instance().start();
  core::FaultCriticalityAnalyzer analyzer(cfg);
  auto r = analyzer.analyze(load_target(target));
  std::printf("%s\n", core::summarize(r).c_str());

  const int top_n =
      flags.contains("--top") ? std::stoi(flags.at("--top")) : 10;
  struct Entry {
    netlist::NodeId node;
    double score;
  };
  std::vector<Entry> ranking;
  for (const auto node : r.dataset.nodes)
    ranking.push_back({node, r.regression
                                 ? r.regression->predicted_score[node]
                                 : r.gcn_eval.proba[node]});
  std::sort(ranking.begin(), ranking.end(),
            [](const Entry& a, const Entry& b) { return a.score > b.score; });
  core::TextTable table({"Rank", "Node", "Predicted score", "FI truth",
                         "Verdict"});
  for (int i = 0; i < top_n && i < static_cast<int>(ranking.size()); ++i) {
    const auto& e = ranking[static_cast<std::size_t>(i)];
    table.add_row({std::to_string(i + 1), r.design.netlist.node(e.node).name,
                   util::format_double(e.score, 3),
                   util::format_double(r.scores[e.node], 3),
                   r.labels[e.node] ? "Critical" : "Non-critical"});
  }
  std::printf("top %d nodes by predicted criticality\n%s", top_n,
              table.to_string().c_str());

  if (flags.contains("--save-model")) {
    ml::save_gcn_file(*r.gcn, flags.at("--save-model"));
    std::printf("saved GCN to %s\n", flags.at("--save-model").c_str());
  }

  if (flags.contains("--csv")) {
    std::ofstream csv(flags.at("--csv"));
    csv << "node,cell,predicted_class,predicted_score,fi_score,fi_label\n";
    for (const auto node : r.dataset.nodes) {
      csv << r.design.netlist.node(node).name << ","
          << netlist::spec(r.design.netlist.kind(node)).name << ","
          << r.gcn_eval.predicted[node] << ","
          << (r.regression ? r.regression->predicted_score[node]
                           : r.gcn_eval.proba[node])
          << "," << r.scores[node] << "," << r.labels[node] << "\n";
    }
    std::printf("wrote %s (%zu rows)\n", flags.at("--csv").c_str(),
                r.dataset.size());
  }

  if (flags.contains("--explain")) {
    const int k = std::stoi(flags.at("--explain"));
    explain::GnnExplainer explainer(*r.gcn, r.graph, r.features);
    std::vector<explain::Explanation> explanations;
    for (int i = 0; i < k && i < static_cast<int>(ranking.size()); ++i)
      explanations.push_back(explainer.explain(
          static_cast<int>(ranking[static_cast<std::size_t>(i)].node)));
    const auto global = explain::aggregate_explanations(explanations);
    std::printf("\n%s", explain::format_global_importance(
                            global, graphir::base_feature_names())
                            .c_str());
  }

  if (tracing) {
    const std::string& path = flags.at("--trace-out");
    obs::Tracer::instance().stop();
    if (!obs::Tracer::instance().write_chrome_trace_file(path))
      throw std::runtime_error("cannot write trace to " + path);
    std::printf("wrote trace %s (%zu spans; load with chrome://tracing)\n",
                path.c_str(), obs::Tracer::instance().events().size());
  }
  return 0;
}

int cmd_scoap(const std::string& target,
              const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const auto r = sim::compute_scoap(d.netlist);
  const int top_n =
      flags.contains("--top") ? std::stoi(flags.at("--top")) : 10;

  // Rank by detection difficulty: min over polarity of (CC of the opposite
  // value + CO) — the classical testability measure.
  struct Entry {
    netlist::NodeId node;
    double difficulty;
  };
  std::vector<Entry> ranking;
  for (const auto node : fault::fault_sites(d.netlist)) {
    const double sa0 = r.cc1[node] + r.co[node];  // detect SA0: drive 1
    const double sa1 = r.cc0[node] + r.co[node];
    ranking.push_back({node, std::max(sa0, sa1)});
  }
  std::sort(ranking.begin(), ranking.end(), [](const Entry& a, const Entry& b) {
    return a.difficulty > b.difficulty;
  });
  core::TextTable table({"Node", "CC0", "CC1", "CO", "Hardest fault cost"});
  for (int i = 0; i < top_n && i < static_cast<int>(ranking.size()); ++i) {
    const auto node = ranking[static_cast<std::size_t>(i)].node;
    table.add_row({d.netlist.node(node).name,
                   util::format_double(r.cc0[node], 1),
                   util::format_double(r.cc1[node], 1),
                   util::format_double(r.co[node], 1),
                   util::format_double(
                       ranking[static_cast<std::size_t>(i)].difficulty, 1)});
  }
  std::printf("hardest-to-test nodes (SCOAP)\n%s", table.to_string().c_str());
  return 0;
}

int cmd_wave(const std::string& target,
             const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  const int cycles =
      flags.contains("--cycles") ? std::stoi(flags.at("--cycles")) : 128;
  const int lane = flags.contains("--lane") ? std::stoi(flags.at("--lane")) : 0;
  const auto out_it = flags.find("-o");
  if (out_it == flags.end()) {
    sim::dump_vcd(d.netlist, d.stimulus, 1, cycles, lane, std::cout);
  } else {
    std::ofstream out(out_it->second);
    sim::dump_vcd(d.netlist, d.stimulus, 1, cycles, lane, out);
    std::printf("wrote %s (%d cycles, lane %d)\n", out_it->second.c_str(),
                cycles, lane);
  }
  return 0;
}

int cmd_autopsy(const std::string& target,
                const std::map<std::string, std::string>& flags) {
  const auto d = load_target(target);
  if (!flags.contains("--node")) {
    std::fprintf(stderr, "autopsy: --node NAME is required\n");
    return 2;
  }
  const auto node = d.netlist.find(flags.at("--node"));
  if (!node) {
    std::fprintf(stderr, "autopsy: no node named '%s'\n",
                 flags.at("--node").c_str());
    return 2;
  }
  fault::CampaignConfig cfg;
  cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;
  if (flags.contains("--cycles")) cfg.cycles = std::stoi(flags.at("--cycles"));
  const bool sa1 = flags.contains("--sa") && flags.at("--sa") == "1";

  fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const auto a = fault::run_autopsy(campaign, d.netlist, {*node, sa1});
  std::printf("%s", a.to_string().c_str());
  return 0;
}

int cmd_harden(const std::string& target,
               const std::map<std::string, std::string>& flags) {
  core::PipelineConfig cfg;
  cfg.train_baselines = false;
  core::FaultCriticalityAnalyzer analyzer(cfg);
  auto r = analyzer.analyze(load_target(target));
  std::printf("%s", core::summarize(r).c_str());

  const auto k = static_cast<std::size_t>(
      flags.contains("--top") ? std::stoi(flags.at("--top")) : 10);
  std::vector<netlist::NodeId> ranked(r.dataset.nodes);
  std::sort(ranked.begin(), ranked.end(),
            [&](netlist::NodeId a, netlist::NodeId b) {
              return r.regression->predicted_score[a] >
                     r.regression->predicted_score[b];
            });
  if (ranked.size() > k) ranked.resize(k);

  const auto h = netlist::triplicate_nodes(r.design.netlist, ranked);
  std::printf("hardened %zu nodes (+%zu gates, %.1f%% overhead):\n",
              ranked.size(), h.added_gates,
              100.0 * h.overhead(r.design.netlist));
  for (const auto node : ranked)
    std::printf("  %s (predicted %.2f)\n",
                r.design.netlist.node(node).name.c_str(),
                r.regression->predicted_score[node]);
  const auto out_it = flags.find("-o");
  if (out_it != flags.end()) {
    std::ofstream out(out_it->second);
    netlist::write_verilog(h.netlist, out);
    std::printf("wrote %s\n", out_it->second.c_str());
  }
  return 0;
}

int cmd_pack(const std::string& target,
             const std::map<std::string, std::string>& flags) {
  core::PipelineConfig cfg;
  cfg.train_baselines = false;  // the bundle ships only the GCNs
  if (flags.contains("--cycles"))
    cfg.campaign_cycles = std::stoi(flags.at("--cycles"));
  if (flags.contains("--prob-cycles"))
    cfg.probability_cycles = std::stoi(flags.at("--prob-cycles"));
  if (flags.contains("--epochs")) {
    cfg.train.epochs = std::stoi(flags.at("--epochs"));
    cfg.regressor_train.epochs = cfg.train.epochs;
  }
  if (flags.contains("--jobs"))
    cfg.jobs = util::parse_thread_count(flags.at("--jobs"));
  core::FaultCriticalityAnalyzer analyzer(cfg);
  const auto r = analyzer.analyze(load_target(target));

  const auto bundle = serve::pack_bundle(r);
  const auto out_it = flags.find("-o");
  const std::string path =
      out_it != flags.end() ? out_it->second : r.design.name + ".fcm";
  serve::save_bundle_file(bundle, path);
  std::printf("packed %s -> %s\n", r.design.name.c_str(), path.c_str());
  std::printf("  netlist hash %016llx, %d features, regressor %s\n",
              static_cast<unsigned long long>(bundle.manifest.netlist_hash),
              bundle.manifest.feature_width,
              bundle.regressor ? "yes" : "no");
  std::printf("  classifier val accuracy %.1f%%, val AUC %.3f\n",
              100.0 * r.gcn_eval.val_accuracy, r.gcn_eval.val_auc);
  return 0;
}

void print_score(const serve::ScoreResult& r, int top_n) {
  std::printf("%s scored with bundle '%s' (%zu nodes, netlist %s)\n",
              r.target_name.c_str(), r.bundle_design.c_str(),
              r.node_names.size(),
              r.netlist_matched ? "matched" : "DIFFERS from training");
  const auto ranked = serve::top_sites(r, top_n);
  core::TextTable table({"Rank", "Node", "P(Critical)", "Class", "Score"});
  int rank = 1;
  for (const auto id : ranked)
    table.add_row({std::to_string(rank++), r.node_names[id],
                   util::format_double(r.proba[id], 3),
                   r.predicted[id] ? "Critical" : "Non-critical",
                   util::format_double(r.score[id], 3)});
  std::printf("%s", table.to_string().c_str());
  std::printf("stats %.3fs, forward %.3fs\n", r.stats_seconds,
              r.forward_seconds);
}

int cmd_score(const std::string& bundle_path, const std::string& target,
              const std::map<std::string, std::string>& flags) {
  serve::EngineConfig ec;
  ec.threads =
      flags.contains("--threads") ? std::stoi(flags.at("--threads")) : 2;
  serve::ScoringEngine engine(ec);
  serve::ScoreOptions opts;
  opts.strict_hash = flags.contains("--strict");
  const int top_n =
      flags.contains("--top") ? std::stoi(flags.at("--top")) : 10;

  // @list: one netlist per line, scored concurrently through the pool.
  if (util::starts_with(target, "@")) {
    std::ifstream list(target.substr(1));
    if (!list) throw std::runtime_error("cannot open " + target.substr(1));
    std::vector<std::pair<std::string, std::future<serve::ScoreResult>>>
        futures;
    std::string line;
    while (std::getline(list, line)) {
      const auto path = std::string(util::trim(line));
      if (path.empty() || path[0] == '#') continue;
      futures.emplace_back(path, engine.submit(bundle_path, path, opts));
    }
    int failures = 0;
    for (auto& [path, future] : futures) {
      try {
        print_score(future.get(), top_n);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fcrit score: %s: %s\n", path.c_str(),
                     e.what());
        ++failures;
      }
    }
    const auto m = engine.metrics();
    std::printf("%zu netlists, %llu served, %llu errors, cache %llu/%llu "
                "hits\n",
                futures.size(),
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.errors),
                static_cast<unsigned long long>(m.cache_hits),
                static_cast<unsigned long long>(m.cache_hits +
                                                m.cache_misses));
    return failures == 0 ? 0 : 1;
  }

  print_score(engine.score_path(bundle_path, target, opts), top_n);
  return 0;
}

// SIGINT/SIGTERM -> one byte down a self-pipe; the serve loop blocks on
// the read end and runs the orderly shutdown outside signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void serve_signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const auto n = write(g_signal_pipe[1], &byte, 1);
}

int cmd_serve(const std::string& bundle_dir,
              const std::map<std::string, std::string>& flags) {
  serve::EngineConfig ec;
  if (flags.contains("--threads"))
    ec.threads = std::stoi(flags.at("--threads"));
  if (flags.contains("--cache"))
    ec.cache_capacity =
        static_cast<std::size_t>(std::stoi(flags.at("--cache")));
  // Declared before the engine: EngineConfig holds a pointer into it, so
  // it must outlive the workers that record spans.
  obs::RequestTraceCollector traces(
      flags.contains("--trace-ring")
          ? static_cast<std::size_t>(std::stoi(flags.at("--trace-ring")))
          : 256);
  traces.set_enabled(!flags.contains("--no-trace"));
  ec.traces = &traces;
  serve::ScoringEngine engine(ec);

  serve::ServerConfig sc;
  sc.bundle_dir = bundle_dir;
  if (flags.contains("--port"))
    sc.port = static_cast<std::uint16_t>(std::stoi(flags.at("--port")));
  serve::Server server(engine, sc);
  // Opt-in observability (docs/OBSERVABILITY.md): the JSONL wide-event
  // access log and slow-request mirroring.
  if (flags.contains("--access-log") &&
      !traces.open_access_log(flags.at("--access-log")))
    throw std::runtime_error("cannot open access log " +
                             flags.at("--access-log"));
  if (flags.contains("--slow-ms"))
    traces.set_slow_ms(std::stod(flags.at("--slow-ms")));
  server.start();
  std::printf("fcrit serve: 127.0.0.1:%d, %d worker threads, bundles from "
              "%s\n",
              server.port(), ec.threads, bundle_dir.c_str());
  std::printf("protocol: SCORE [<bundle>] <netlist> [<top>] [id=<n>] | "
              "STATS | METRICS | TRACE <id>|LAST <n> | QUIT; "
              "Ctrl-C drains and exits\n");

  if (pipe(g_signal_pipe) != 0)
    throw std::runtime_error("cannot create signal pipe");
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::printf("\nfcrit serve: shutting down (draining in-flight "
              "requests)\n");
  server.stop();
  engine.shutdown();
  const auto m = engine.metrics();
  std::printf("served %llu requests (%llu errors), cache %llu hits / %llu "
              "misses, peak queue %zu\n",
              static_cast<unsigned long long>(m.requests),
              static_cast<unsigned long long>(m.errors),
              static_cast<unsigned long long>(m.cache_hits),
              static_cast<unsigned long long>(m.cache_misses),
              m.queue_high_water);
  // The counters would otherwise die with the process: one last
  // machine-readable snapshot, same payload as the METRICS command.
  std::printf("final metrics: %s\n", engine.metrics_json().c_str());
  return 0;
}

int cmd_check(const std::map<std::string, std::string>& flags) {
  check::CheckConfig cfg;
  if (flags.contains("--trials")) cfg.trials = std::stoi(flags.at("--trials"));
  if (flags.contains("--seed")) cfg.seed = std::stoull(flags.at("--seed"));
  if (flags.contains("--cycles")) cfg.cycles = std::stoi(flags.at("--cycles"));
  if (flags.contains("--gates")) cfg.gates = std::stoi(flags.at("--gates"));
  if (flags.contains("--flops")) cfg.flops = std::stoi(flags.at("--flops"));
  if (flags.contains("--inputs")) cfg.inputs = std::stoi(flags.at("--inputs"));
  if (flags.contains("--outputs"))
    cfg.outputs = std::stoi(flags.at("--outputs"));
  if (flags.contains("--faults"))
    cfg.max_faults = std::stoi(flags.at("--faults"));
  if (flags.contains("--serve-every"))
    cfg.serve_every = std::stoi(flags.at("--serve-every"));
  if (flags.contains("--campaign-every"))
    cfg.campaign_every = std::stoi(flags.at("--campaign-every"));
  if (flags.contains("--no-shrink")) cfg.shrink = false;
  if (flags.contains("--no-dump")) cfg.dump_netlist = false;
  cfg.scratch_dir =
      (std::filesystem::temp_directory_path() / "fcrit_check").string();

  // Self-test: four phases, each planting one deliberate defect that the
  // run must CATCH — a wrong-XOR scalar reference (packed-vs-scalar
  // oracle), a corrupted naive-sweep verdict (fault oracle), a corrupted
  // frontier-campaign verdict (campaign oracle) and a reference reader
  // reporting an issue one line off (parse oracle).
  if (flags.contains("--self-test")) {
    check::CheckConfig scalar_cfg = cfg;
    scalar_cfg.scalar_bug = check::ScalarBug::kXorAsOr;
    check::CheckConfig fault_cfg = cfg;
    fault_cfg.fault_bug = check::FaultBug::kNaiveMismatchOffByOne;
    check::CheckConfig campaign_cfg = cfg;
    campaign_cfg.campaign_bug = check::CampaignBug::kMismatchOffByOne;
    check::CheckConfig parse_cfg = cfg;
    parse_cfg.parse_bug = check::ParseBug::kIssueLineOffByOne;
    const std::pair<const char*, const check::CheckConfig*> phases[] = {
        {"scalar", &scalar_cfg},
        {"fault", &fault_cfg},
        {"campaign", &campaign_cfg},
        {"parse", &parse_cfg}};
    for (const auto& [name, phase_cfg] : phases) {
      if (check::run_checks(*phase_cfg, &std::cerr).ok()) {
        std::fprintf(stderr,
                     "check: SELF-TEST FAILED: planted %s defect not caught\n",
                     name);
        return 1;
      }
    }
    std::printf("check: self-test OK (planted scalar + fault + campaign + "
                "parse defects caught)\n");
    return 0;
  }

  const auto report = check::run_checks(cfg, &std::cerr);
  std::printf(
      "check: %d trials (%d packed-vs-scalar, %d fault-oracle, %d campaign, "
      "%d dataflow, %d parse, %d serve)\n",
      report.trials_run, report.packed_checks, report.fault_checks,
      report.campaign_checks, report.dataflow_checks, report.parse_checks,
      report.serve_checks);
  std::printf("check: parse inputs: %d clean, %d with issues, %d throw\n",
              report.parse_split.clean, report.parse_split.with_issues,
              report.parse_split.throws);
  if (!report.ok()) {
    std::fprintf(stderr, "check: FAILED\n");
    return 1;
  }
  std::printf("check: OK, all oracles bit-identical\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // Global flags apply to every command; FCRIT_LOG / FCRIT_THREADS are the
  // environment-side knobs (see src/obs/log.hpp, src/util/parallel.hpp).
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") obs::set_log_level(obs::LogLevel::kDebug);
    if (arg == "--quiet") obs::set_log_level(obs::LogLevel::kWarn);
    if (arg == "--jobs") {
      const int n =
          i + 1 < argc ? util::parse_thread_count(argv[i + 1]) : -1;
      if (n < 0) {
        std::fprintf(stderr, "fcrit: --jobs needs a thread count "
                             "(0 = all cores, 1 = serial)\n");
        return 2;
      }
      util::set_num_threads(n);
    }
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsageText, stdout);
    return 0;
  }
  if (command == "version" || command == "--version") {
    std::printf("fcrit %s\n", kVersion);
    return 0;
  }
  try {
    if (command == "list") return cmd_list();
    // check has no positional target, only flags.
    if (command == "check") return cmd_check(parse_flags(argc, argv, 2));
    if (argc < 3) return usage();
    const std::string target = argv[2];
    if (command == "score") {
      // score takes two positionals: <bundle> <target>, then flags.
      if (argc < 4 || argv[3][0] == '-') return usage();
      return cmd_score(target, argv[3], parse_flags(argc, argv, 4));
    }
    const auto flags = parse_flags(argc, argv, 3);
    if (command == "lint") return cmd_lint(target, flags);
    if (command == "stats") return cmd_stats(target);
    if (command == "export") return cmd_export(target, flags);
    if (command == "sweep") return cmd_sweep(target, flags);
    if (command == "campaign") return cmd_campaign(target, flags);
    if (command == "analyze" || command == "pipeline")
      return cmd_analyze(target, flags);
    if (command == "scoap") return cmd_scoap(target, flags);
    if (command == "wave") return cmd_wave(target, flags);
    if (command == "autopsy") return cmd_autopsy(target, flags);
    if (command == "harden") return cmd_harden(target, flags);
    if (command == "pack") return cmd_pack(target, flags);
    if (command == "serve") return cmd_serve(target, flags);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcrit: %s\n", e.what());
    return 1;
  }
}
