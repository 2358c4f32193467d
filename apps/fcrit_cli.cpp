// fcrit — command-line front end of the fault-criticality framework.
//
// Every command is one row of kVerbs: its names, its positionals, the
// flags it reads, a one-line help and its handler. main() dispatches
// through the table, `fcrit help` prints it, and a flag that neither the
// command's row nor kGlobal declares is refused before any work starts.
//
// A "design" argument is a registered name (sdram_ctrl, or1200_if,
// or1200_icfsm); anything ending in .v or .bench is parsed from disk. The
// built-in designs carry protocol-aware stimulus; parsed netlists use a
// generic profile (reset pulse on any input named rst*, uniform elsewhere).
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// A flag and its value placeholder; a switch has none. A placeholder of
/// `a|b|c` lists the only values the flag takes (Args::choice).
struct Flag {
  std::string_view name, value;
};

struct Args;

/// One command: its `|`-separated names, one `<...>` per positional, the
/// flags it reads, a one-line help and its handler.
struct Verb {
  std::string_view names, positionals;
  std::vector<Flag> flags;
  std::string_view help;
  int (*run)(const Args&);
};

/// A command-line mistake: exit 2 with the command's synopsis.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The flags every command accepts.
const Verb kGlobal{
    "", "", {{"--verbose", ""}, {"--quiet", ""}, {"--jobs", "N"}},
    "log level (or FCRIT_LOG); ML threads, 0 = all cores (or FCRIT_THREADS)",
    nullptr};

const Flag* find_flag(const Verb& verb, std::string_view name) {
  for (const Verb* row : {&verb, &kGlobal})
    for (const Flag& flag : row->flags)
      if (flag.name == name) return &flag;
  return nullptr;
}

/// The index of `word` among the `|`-separated `options`, or -1.
int option_index(std::string_view options, std::string_view word) {
  for (int index = 0;; ++index) {
    const std::size_t bar = options.find('|');
    if (options.substr(0, bar) == word) return index;
    if (bar == std::string_view::npos) return -1;
    options.remove_prefix(bar + 1);
  }
}

UsageError bad_value(std::string_view flag, const std::string& token,
                     const std::string& expected) {
  return UsageError("bad value '" + token + "' for " + std::string(flag) +
                    ": expected " + expected);
}

/// A command's positionals and the flags it was given, checked against its
/// row and kGlobal before any work starts.
struct Args {
  Args(const Verb& row, int argc, char** argv) : verb(&row) {
    const auto wanted = static_cast<std::size_t>(
        std::count(row.positionals.begin(), row.positionals.end(), '<'));
    for (int i = 2; i < argc; ++i) {
      const std::string token = argv[i];
      const Flag* flag = find_flag(row, token);
      if (token.size() < 2 || token[0] != '-') {
        if (pos.size() == wanted)
          throw UsageError("unexpected argument '" + token + "'");
        pos.push_back(token);
      } else if (flag == nullptr) {
        throw UsageError("unknown flag '" + token + "'");
      } else if (!flag->value.empty() && i + 1 == argc) {
        throw UsageError("flag '" + token + "' needs a value");
      } else {
        given[token] = flag->value.empty() ? "" : argv[++i];
      }
    }
    if (pos.size() < wanted)
      throw UsageError("missing " + std::string(row.positionals));
  }

  /// The flag's value ("" for a switch), or nullptr when it was not given.
  const std::string* get(std::string_view flag) const {
    if (find_flag(*verb, flag) == nullptr)
      throw std::logic_error("flag " + std::string(flag) + " is undeclared");
    const auto it = given.find(flag);
    return it == given.end() ? nullptr : &it->second;
  }

  bool has(std::string_view flag) const { return get(flag) != nullptr; }

  /// The whole token as a T (std::from_chars) inside [lo, hi], which
  /// defaults to T's range: a cast of the result never wraps.
  template <typename T>
  T number(std::string_view flag, T fallback,
           T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max()) const {
    const std::string* token = get(flag);
    if (token == nullptr) return fallback;
    T value{};
    const char* end = token->data() + token->size();
    const auto [stop, ec] = std::from_chars(token->data(), end, value);
    if (ec == std::errc() && stop == end && value >= lo && value <= hi)
      return value;
    throw bad_value(flag, *token,
                    std::numeric_limits<T>::is_integer
                        ? "an integer in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]"
                        : "a finite number");
  }

  /// The index of the flag's value among the `a|b|c` of its placeholder.
  int choice(std::string_view flag, int fallback) const {
    const std::string* token = get(flag);
    if (token == nullptr) return fallback;
    const std::string_view options = find_flag(*verb, flag)->value;
    const int index = option_index(options, *token);
    if (index < 0) throw bad_value(flag, *token, std::string(options));
    return index;
  }

  const Verb* verb;
  std::vector<std::string> pos;
  std::map<std::string, std::string, std::less<>> given;
};

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

int print_usage(std::FILE* out, int code);

int cmd_list(const Args&) {
  for (const auto& name : designs::design_names()) {
    const auto d = designs::build_design(name);
    std::printf("%-14s %s\n", name.c_str(),
                netlist::compute_stats(d.netlist).to_string().c_str());
  }
  return 0;
}

int cmd_lint(const Args& args) {
  const lint::Severity thresholds[] = {
      lint::Severity::kError, lint::Severity::kWarning, lint::Severity::kNote};
  const lint::Severity threshold = thresholds[args.choice("--fail-on", 0)];
  const std::string& target = args.pos[0];
  lint::LintReport report;
  report.target_name = target;
  netlist::Netlist nl;
  bool have_netlist = false;

  auto add_error = [&](std::string rule, std::string message) {
    lint::Diagnostic d;
    d.rule_id = std::move(rule);
    d.severity = lint::Severity::kError;
    d.message = std::move(message);
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
    try {
      const std::string text = netlist::read_netlist_file(target);
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
        add_error("parse-error", e.what());
      }
    } catch (const netlist::VerilogLimitError& e) {
      add_error("parse-error", e.what());
    }
  }

  if (have_netlist) {
    lint::lint_netlist(nl, report);
    try {
      const auto graph = graphir::build_graph(nl);
      lint::lint_graphir(nl, {.graph = &graph}, report);
    } catch (const std::exception& e) {
      add_error("graphir-consistency",
                std::string("graph construction failed: ") + e.what());
    }
  }

  if (args.has("--json"))
    std::printf("%s\n", report.to_json().c_str());
  else
    std::printf("%s", report.to_string().c_str());
  return report.count_at_least(threshold) > 0 ? 1 : 0;
}

int cmd_stats(const Args& args) {
  const auto d = load_target(args.pos[0]);
  std::printf("%s\n", netlist::compute_stats(d.netlist).to_string().c_str());
  const auto collapsed = fault::collapse_faults(d.netlist);
  std::printf("fault universe: %zu stuck-at faults, %zu after collapsing "
              "(%.1f%%)\n",
              collapsed.original_count, collapsed.representatives.size(),
              100.0 * collapsed.collapse_ratio());
  return 0;
}

/// Writes `text` to the -o file and says so; false when -o was not given.
bool write_output(const Args& args, const std::string& text) {
  const std::string* out = args.get("-o");
  if (out == nullptr) return false;
  std::ofstream(*out) << text;
  std::printf("wrote %s\n", out->c_str());
  return true;
}

int cmd_export(const Args& args) {
  const int format = args.choice("--format", 0);
  const auto d = load_target(args.pos[0]);
  const std::string text = format == 0   ? netlist::to_verilog(d.netlist)
                           : format == 1 ? netlist::to_bench(d.netlist)
                                         : netlist::to_dot(d.netlist);
  if (!write_output(args, text)) std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto d = load_target(args.pos[0]);
  const auto result = netlist::sweep(d.netlist);
  std::printf("removed %zu dead nodes (%zu -> %zu)\n", result.dropped(),
              d.netlist.num_nodes(), result.netlist.num_nodes());
  if (args.has("-o")) write_output(args, netlist::to_verilog(result.netlist));
  return 0;
}

/// --threads, read by campaign, score and serve: each lane is a thread the
/// command starts, so, like --jobs, it takes at most util::kMaxThreads.
int thread_flag(const Args& args, int fallback) {
  return args.number("--threads", fallback, std::numeric_limits<int>::min(),
                     util::kMaxThreads);
}

int cmd_campaign(const Args& args) {
  fault::CampaignConfig cfg;
  cfg.cycles = args.number("--cycles", cfg.cycles);
  cfg.seed = args.number("--seed", cfg.seed);
  cfg.num_threads = thread_flag(args, cfg.num_threads);
  const auto d = load_target(args.pos[0]);
  cfg.dangerous_cycle_fraction =
      args.number("--fraction", d.dangerous_cycle_fraction);

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
  std::printf("%s\n", fault::summarize_coverage(result).to_string().c_str());
  if (const std::string* path = args.get("--report")) {
    std::ofstream out(*path);
    fault::write_fault_report(d.netlist, result, out);
    std::printf("wrote %s\n", path->c_str());
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

/// --cycles and --epochs, read by analyze and pack.
core::PipelineConfig pipeline_config(const Args& args) {
  core::PipelineConfig cfg;
  cfg.campaign_cycles = args.number("--cycles", cfg.campaign_cycles);
  cfg.train.epochs = args.number("--epochs", cfg.train.epochs);
  cfg.regressor_train.epochs =
      args.number("--epochs", cfg.regressor_train.epochs);
  return cfg;
}

int cmd_analyze(const Args& args) {
  core::PipelineConfig cfg = pipeline_config(args);
  cfg.train_baselines = !args.has("--no-baselines");
  const int top_n = args.number("--top", 10);
  const int explain_k = args.number("--explain", 0);
  const std::string* trace_path = args.get("--trace-out");
  if (trace_path != nullptr) obs::Tracer::instance().start();
  core::FaultCriticalityAnalyzer analyzer(cfg);
  auto r = analyzer.analyze(load_target(args.pos[0]));
  std::printf("%s\n", core::summarize(r).c_str());

  // The regressor's score ranks when it was trained, else P(Critical).
  const std::vector<double>& predicted =
      r.regression ? r.regression->predicted_score : r.gcn_eval.proba;
  std::vector<std::pair<netlist::NodeId, double>> ranking;  // node, score
  for (const auto node : r.dataset.nodes)
    ranking.emplace_back(node, predicted[node]);
  std::sort(ranking.begin(), ranking.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  core::TextTable table({"Rank", "Node", "Predicted score", "FI truth",
                         "Verdict"});
  for (int i = 0; i < top_n && i < static_cast<int>(ranking.size()); ++i) {
    const auto [node, score] = ranking[static_cast<std::size_t>(i)];
    table.add_row({std::to_string(i + 1), r.design.netlist.node(node).name,
                   util::format_double(score, 3),
                   util::format_double(r.scores[node], 3),
                   r.labels[node] ? "Critical" : "Non-critical"});
  }
  std::printf("top %d nodes by predicted criticality\n%s", top_n,
              table.to_string().c_str());

  if (const std::string* path = args.get("--save-model")) {
    ml::save_gcn_file(*r.gcn, *path);
    std::printf("saved GCN to %s\n", path->c_str());
  }

  if (const std::string* path = args.get("--csv")) {
    std::ofstream csv(*path);
    csv << "node,cell,predicted_class,predicted_score,fi_score,fi_label\n";
    for (const auto node : r.dataset.nodes) {
      csv << r.design.netlist.node(node).name << ","
          << netlist::spec(r.design.netlist.kind(node)).name << ","
          << r.gcn_eval.predicted[node] << "," << predicted[node] << ","
          << r.scores[node] << "," << r.labels[node] << "\n";
    }
    std::printf("wrote %s (%zu rows)\n", path->c_str(), r.dataset.size());
  }

  if (args.has("--explain")) {
    explain::GnnExplainer explainer(*r.gcn, r.graph, r.features);
    std::vector<explain::Explanation> explanations;
    for (int i = 0; i < explain_k && i < static_cast<int>(ranking.size()); ++i)
      explanations.push_back(explainer.explain(
          static_cast<int>(ranking[static_cast<std::size_t>(i)].first)));
    const auto global = explain::aggregate_explanations(explanations);
    std::printf("\n%s", explain::format_global_importance(
                            global, graphir::base_feature_names())
                            .c_str());
  }

  if (trace_path != nullptr) {
    obs::Tracer::instance().stop();
    if (!obs::Tracer::instance().write_chrome_trace_file(*trace_path))
      throw std::runtime_error("cannot write trace to " + *trace_path);
    std::printf("wrote trace %s (%zu spans; load with chrome://tracing)\n",
                trace_path->c_str(), obs::Tracer::instance().events().size());
  }
  return 0;
}

int cmd_scoap(const Args& args) {
  const int top_n = args.number("--top", 10);
  const auto d = load_target(args.pos[0]);
  const auto r = sim::compute_scoap(d.netlist);

  // Rank by detection difficulty: min over polarity of (CC of the opposite
  // value + CO) — the classical testability measure.
  std::vector<std::pair<netlist::NodeId, double>> ranking;  // node, cost
  for (const auto node : fault::fault_sites(d.netlist)) {
    const double sa0 = r.cc1[node] + r.co[node];  // detect SA0: drive 1
    const double sa1 = r.cc0[node] + r.co[node];
    ranking.emplace_back(node, std::max(sa0, sa1));
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  core::TextTable table({"Node", "CC0", "CC1", "CO", "Hardest fault cost"});
  for (int i = 0; i < top_n && i < static_cast<int>(ranking.size()); ++i) {
    const auto [node, cost] = ranking[static_cast<std::size_t>(i)];
    table.add_row({d.netlist.node(node).name,
                   util::format_double(r.cc0[node], 1),
                   util::format_double(r.cc1[node], 1),
                   util::format_double(r.co[node], 1),
                   util::format_double(cost, 1)});
  }
  std::printf("hardest-to-test nodes (SCOAP)\n%s", table.to_string().c_str());
  return 0;
}

int cmd_wave(const Args& args) {
  const int cycles = args.number("--cycles", 128);
  const int lane = args.number("--lane", 0);
  const auto d = load_target(args.pos[0]);
  const std::string* path = args.get("-o");
  std::ofstream file;
  if (path != nullptr) file.open(*path);
  sim::dump_vcd(d.netlist, d.stimulus, 1, cycles, lane,
                path != nullptr ? file : std::cout);
  if (path != nullptr)
    std::printf("wrote %s (%d cycles, lane %d)\n", path->c_str(), cycles,
                lane);
  return 0;
}

int cmd_autopsy(const Args& args) {
  const std::string* name = args.get("--node");
  if (name == nullptr) throw UsageError("--node NAME is required");
  const bool sa1 = args.choice("--sa", 0) == 1;
  fault::CampaignConfig cfg;
  cfg.cycles = args.number("--cycles", cfg.cycles);
  const auto d = load_target(args.pos[0]);
  const auto node = d.netlist.find(*name);
  if (!node) throw bad_value("--node", *name, "a node of " + d.name);
  cfg.dangerous_cycle_fraction = d.dangerous_cycle_fraction;

  fault::FaultCampaign campaign(d.netlist, d.stimulus, cfg);
  campaign.run_golden();
  const auto a = fault::run_autopsy(campaign, d.netlist, {*node, sa1});
  std::printf("%s", a.to_string().c_str());
  return 0;
}

int cmd_harden(const Args& args) {
  const auto k = static_cast<std::size_t>(args.number("--top", 10, 0));
  core::PipelineConfig cfg;
  cfg.train_baselines = false;
  core::FaultCriticalityAnalyzer analyzer(cfg);
  auto r = analyzer.analyze(load_target(args.pos[0]));
  std::printf("%s", core::summarize(r).c_str());

  std::vector<netlist::NodeId> ranked(r.dataset.nodes);
  const auto& score = r.regression->predicted_score;
  std::sort(ranked.begin(), ranked.end(),
            [&](auto a, auto b) { return score[a] > score[b]; });
  if (ranked.size() > k) ranked.resize(k);

  const auto h = netlist::triplicate_nodes(r.design.netlist, ranked);
  std::printf("hardened %zu nodes (+%zu gates, %.1f%% overhead):\n",
              ranked.size(), h.added_gates,
              100.0 * h.overhead(r.design.netlist));
  for (const auto node : ranked)
    std::printf("  %s (predicted %.2f)\n",
                r.design.netlist.node(node).name.c_str(),
                score[node]);
  if (args.has("-o")) write_output(args, netlist::to_verilog(h.netlist));
  return 0;
}

int cmd_pack(const Args& args) {
  core::PipelineConfig cfg = pipeline_config(args);
  cfg.train_baselines = false;  // the bundle ships only the GCNs
  cfg.probability_cycles =
      args.number("--prob-cycles", cfg.probability_cycles);
  core::FaultCriticalityAnalyzer analyzer(cfg);
  const auto r = analyzer.analyze(load_target(args.pos[0]));

  const auto bundle = serve::pack_bundle(r);
  const std::string* out = args.get("-o");
  const std::string path = out != nullptr ? *out : r.design.name + ".fcm";
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

int cmd_score(const Args& args) {
  const std::string& bundle_path = args.pos[0];
  const std::string& target = args.pos[1];
  serve::EngineConfig ec;
  ec.threads = thread_flag(args, 2);
  serve::ScoreOptions opts;
  opts.strict_hash = args.has("--strict");
  const int top_n = args.number("--top", 10);
  serve::ScoringEngine engine(ec);

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

int cmd_serve(const Args& args) {
  serve::EngineConfig ec;
  ec.threads = thread_flag(args, ec.threads);
  ec.cache_capacity = args.number("--cache", ec.cache_capacity);
  serve::ServerConfig sc;
  sc.bundle_dir = args.pos[0];
  sc.port = args.number("--port", sc.port);
  // Declared before the engine: EngineConfig holds a pointer into it, so
  // it must outlive the workers that record spans.
  obs::RequestTraceCollector traces(
      args.number<std::size_t>("--trace-ring", 256));
  traces.set_enabled(!args.has("--no-trace"));
  traces.set_slow_ms(args.number("--slow-ms", traces.slow_ms()));
  // Opt-in observability (docs/OBSERVABILITY.md): the JSONL wide-event
  // access log and slow-request mirroring.
  if (const std::string* log = args.get("--access-log");
      log != nullptr && !traces.open_access_log(*log))
    throw std::runtime_error("cannot open access log " + *log);
  ec.traces = &traces;
  serve::ScoringEngine engine(ec);
  serve::Server server(engine, sc);
  server.start();
  std::printf("fcrit serve: 127.0.0.1:%d, %d worker threads, bundles from "
              "%s\n",
              server.port(), ec.threads, sc.bundle_dir.c_str());
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

int cmd_check(const Args& args) {
  check::CheckConfig cfg;
  cfg.trials = args.number("--trials", cfg.trials);
  cfg.seed = args.number("--seed", cfg.seed);
  cfg.cycles = args.number("--cycles", cfg.cycles);
  cfg.gates = args.number("--gates", cfg.gates);
  cfg.flops = args.number("--flops", cfg.flops);
  cfg.inputs = args.number("--inputs", cfg.inputs);
  cfg.outputs = args.number("--outputs", cfg.outputs);
  cfg.max_faults = args.number("--faults", cfg.max_faults);
  cfg.serve_every = args.number("--serve-every", cfg.serve_every);
  cfg.campaign_every = args.number("--campaign-every", cfg.campaign_every);
  cfg.shrink = !args.has("--no-shrink");
  cfg.dump_netlist = !args.has("--no-dump");
  cfg.scratch_dir =
      (std::filesystem::temp_directory_path() / "fcrit_check").string();

  // Self-test: four phases, each planting one deliberate defect that the
  // run must CATCH — a wrong-XOR scalar reference (packed-vs-scalar
  // oracle), a corrupted naive-sweep verdict (fault oracle), a corrupted
  // frontier-campaign verdict (campaign oracle) and a reference reader
  // reporting an issue one line off (parse oracle).
  if (args.has("--self-test")) {
    std::pair<const char*, check::CheckConfig> phases[] = {
        {"scalar", cfg}, {"fault", cfg}, {"campaign", cfg}, {"parse", cfg}};
    phases[0].second.scalar_bug = check::ScalarBug::kXorAsOr;
    phases[1].second.fault_bug = check::FaultBug::kNaiveMismatchOffByOne;
    phases[2].second.campaign_bug = check::CampaignBug::kMismatchOffByOne;
    phases[3].second.parse_bug = check::ParseBug::kIssueLineOffByOne;
    for (const auto& [name, phase_cfg] : phases) {
      if (check::run_checks(phase_cfg, &std::cerr).ok()) {
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

const std::vector<Verb> kVerbs = {
    {"list", "", {}, "registered designs", cmd_list},
    {"lint", "<design|file>",
     {{"--json", ""}, {"--fail-on", "error|warn|note"}},
     "structural static analysis; exit 1 at the threshold (default error)",
     cmd_lint},
    {"stats", "<design|file>", {}, "netlist statistics", cmd_stats},
    {"export", "<design|file>",
     {{"--format", "verilog|bench|dot"}, {"-o", "FILE"}},
     "write the netlist (default verilog, to stdout)", cmd_export},
    {"sweep", "<design|file>", {{"-o", "FILE"}}, "remove dead logic",
     cmd_sweep},
    {"campaign", "<design|file>",
     {{"--cycles", "N"}, {"--seed", "S"}, {"--fraction", "F"},
      {"--threads", "T"}, {"--report", "FILE"}},
     "fault-injection campaign and its Algorithm 1 dataset", cmd_campaign},
    {"analyze|pipeline", "<design|file>",
     {{"--cycles", "N"}, {"--epochs", "N"}, {"--no-baselines", ""},
      {"--top", "N"}, {"--explain", "K"}, {"--save-model", "FILE"},
      {"--csv", "FILE"}, {"--trace-out", "FILE"}},
     "FI campaign, GCN training, predicted ranking; a Chrome trace of it",
     cmd_analyze},
    {"scoap", "<design|file>", {{"--top", "N"}}, "testability report",
     cmd_scoap},
    {"wave", "<design|file>",
     {{"--cycles", "N"}, {"--lane", "L"}, {"-o", "FILE"}},
     "dump a VCD waveform", cmd_wave},
    {"autopsy", "<design|file>",
     {{"--node", "NAME"}, {"--sa", "0|1"}, {"--cycles", "N"}},
     "debug one fault (--node is required)", cmd_autopsy},
    {"harden", "<design|file>", {{"--top", "K"}, {"-o", "FILE"}},
     "TMR the predicted top-K", cmd_harden},
    {"pack", "<design|file>",
     {{"--cycles", "N"}, {"--prob-cycles", "N"}, {"--epochs", "N"},
      {"-o", "FILE"}},
     "train and package a model bundle (default <design>.fcm)", cmd_pack},
    {"score", "<bundle.fcm> <design|file|@list>",
     {{"--top", "N"}, {"--strict", ""}, {"--threads", "T"}},
     "inference only, no FI campaign", cmd_score},
    {"serve", "<bundle-dir>",
     {{"--port", "P"}, {"--threads", "T"}, {"--cache", "N"},
      {"--access-log", "FILE"}, {"--slow-ms", "MS"}, {"--trace-ring", "N"},
      {"--no-trace", ""}},
     "scoring daemon on 127.0.0.1; replace bundles by rename", cmd_serve},
    {"check", "",
     {{"--trials", "N"}, {"--seed", "S"}, {"--cycles", "N"}, {"--gates", "N"},
      {"--flops", "N"}, {"--inputs", "N"}, {"--outputs", "N"},
      {"--faults", "N"}, {"--serve-every", "K"}, {"--campaign-every", "K"},
      {"--no-shrink", ""}, {"--no-dump", ""}, {"--self-test", ""}},
     "differential-oracle fuzzing harness", cmd_check},
    {"help|--help|-h", "", {}, "this text",
     [](const Args&) { return print_usage(stdout, 0); }},
    {"version|--version", "", {}, "print the fcrit version",
     [](const Args&) { std::printf("fcrit %s\n", kVersion); return 0; }},
};

/// `line`, the row's synopsis wrapped at 78 columns, then its help.
void print_row(std::FILE* out, std::string line, const Verb& verb) {
  line += std::string(verb.names);
  if (!verb.positionals.empty()) line += " " + std::string(verb.positionals);
  for (const Flag& flag : verb.flags) {
    std::string item = " [" + std::string(flag.name);
    if (!flag.value.empty()) item += " " + std::string(flag.value);
    if (line.size() + item.size() + 1 > 78) {
      std::fprintf(out, "%s\n", line.c_str());
      line = "     ";
    }
    line += item + "]";
  }
  std::fprintf(out, "%s\n      %.*s\n", line.c_str(),
               static_cast<int>(verb.help.size()), verb.help.data());
}

int print_usage(std::FILE* out, int code) {
  std::fputs("usage: fcrit <command> [args]\n", out);
  for (const Verb& verb : kVerbs) print_row(out, "  ", verb);
  std::fputs("global flags, after any command:\n", out);
  print_row(out, " ", kGlobal);  // its first item brings a space
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const Verb* verb = nullptr;
  for (const Verb& row : kVerbs)
    if (argc >= 2 && option_index(row.names, argv[1]) >= 0) verb = &row;
  if (verb == nullptr) {
    if (argc >= 2)
      std::fprintf(stderr, "fcrit: unknown command '%s'\n", argv[1]);
    return print_usage(stderr, 2);
  }
  try {
    const Args args(*verb, argc, argv);
    if (args.has("--verbose")) obs::set_log_level(obs::LogLevel::kDebug);
    if (args.has("--quiet")) obs::set_log_level(obs::LogLevel::kWarn);
    if (args.has("--jobs"))
      util::set_num_threads(args.number("--jobs", 0, 0, util::kMaxThreads));
    return verb->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "fcrit %s: %s\n", argv[1], e.what());
    print_row(stderr, "usage: fcrit ", *verb);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcrit: %s\n", e.what());
    return 1;
  }
}
