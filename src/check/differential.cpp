#include "src/check/differential.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <vector>

#include "src/check/front_end_ref.hpp"
#include "src/fault/fault.hpp"
#include "src/graphir/features.hpp"
#include "src/graphir/graph.hpp"
#include "src/ml/serialize.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/serve/bundle.hpp"
#include "src/serve/engine.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/sim/probability.hpp"
#include "src/sim/stimulus.hpp"
#include "src/sla/dataflow.hpp"
#include "src/util/rng.hpp"

namespace fcrit::check {

using netlist::NodeId;

std::string diff_packed_vs_scalar(const designs::Design& design, int cycles,
                                  std::uint64_t seed, ScalarBug bug) {
  const netlist::Netlist& nl = design.netlist;
  const auto num_nodes = nl.num_nodes();

  // One packed pass, recording the stimulus words and every node word per
  // cycle so the 64 scalar replays can compare against them.
  sim::PackedSimulator packed(nl);
  sim::StimulusGenerator stim(nl, design.stimulus, seed);
  std::vector<std::vector<std::uint64_t>> stim_words(
      static_cast<std::size_t>(cycles));
  std::vector<std::uint64_t> trace(
      static_cast<std::size_t>(cycles) * num_nodes);
  for (int t = 0; t < cycles; ++t) {
    stim.next_cycle(stim_words[static_cast<std::size_t>(t)]);
    packed.eval_comb(stim_words[static_cast<std::size_t>(t)]);
    std::uint64_t* row = trace.data() +
                         static_cast<std::size_t>(t) * num_nodes;
    for (NodeId id = 0; id < num_nodes; ++id) row[id] = packed.value(id);
    packed.clock();
  }

  // Scalar replay, one independent sequential simulation per lane.
  std::vector<bool> bits(nl.inputs().size());
  for (int lane = 0; lane < sim::kLanes; ++lane) {
    ScalarSimulator scalar(nl, bug);
    for (int t = 0; t < cycles; ++t) {
      const auto& words = stim_words[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < words.size(); ++i)
        bits[i] = (words[i] >> lane) & 1;
      scalar.eval_comb(bits);
      const std::uint64_t* row =
          trace.data() + static_cast<std::size_t>(t) * num_nodes;
      for (NodeId id = 0; id < num_nodes; ++id) {
        const bool packed_bit = (row[id] >> lane) & 1;
        if (packed_bit != scalar.value(id)) {
          std::ostringstream os;
          os << "packed-vs-scalar: node '" << nl.node(id).name << "' ("
             << netlist::spec(nl.kind(id)).name << ") cycle " << t
             << " lane " << lane << ": packed=" << packed_bit
             << " scalar=" << scalar.value(id);
          return os.str();
        }
      }
      scalar.clock();
    }
  }
  return {};
}

namespace {

/// Reference fault verdict: serial re-simulation of the whole netlist with
/// the fault injected through PackedSimulator::inject, compared per cycle
/// against the campaign's golden trace. Independent of simulate_fault's
/// cone machinery and of its counter widths.
fault::FaultResult injected_fault_result(const designs::Design& design,
                                         const fault::CampaignConfig& config,
                                         const fault::FaultCampaign& golden,
                                         const fault::Fault& f) {
  const netlist::Netlist& nl = design.netlist;
  fault::FaultResult r;
  r.fault = f;

  sim::PackedSimulator simr(nl);
  simr.inject(f.node, f.stuck_value);
  sim::StimulusGenerator stim(nl, design.stimulus, config.seed);
  std::vector<std::uint64_t> words;
  std::array<std::uint32_t, sim::kLanes> lane_mismatch_cycles{};

  for (int t = 0; t < config.cycles; ++t) {
    stim.next_cycle(words);
    simr.eval_comb(words);
    std::uint64_t any_mismatch = 0;
    for (const auto& po : nl.outputs())
      any_mismatch |=
          simr.value(po.driver) ^ golden.golden_value(t, po.driver);
    if (any_mismatch) {
      if (r.first_detect_cycle < 0) r.first_detect_cycle = t;
      r.detected_lanes |= any_mismatch;
      r.mismatch_cycles +=
          static_cast<std::uint32_t>(std::popcount(any_mismatch));
      std::uint64_t m = any_mismatch;
      while (m) {
        ++lane_mismatch_cycles[static_cast<std::size_t>(
            std::countr_zero(m))];
        m &= m - 1;
      }
    }
    simr.clock();
  }

  const auto threshold =
      static_cast<std::uint32_t>(config.min_mismatch_cycles());
  for (int lane = 0; lane < sim::kLanes; ++lane) {
    if (lane_mismatch_cycles[static_cast<std::size_t>(lane)] >= threshold)
      r.dangerous_lanes |= (1ULL << lane);
  }
  return r;
}

std::string compare_fault_results(const netlist::Netlist& nl,
                                  const fault::Fault& f,
                                  const fault::FaultResult& a,
                                  const fault::FaultResult& b,
                                  const char* a_name, const char* b_name,
                                  const char* oracle = "fault-oracle") {
  std::ostringstream os;
  os << std::hex;
  if (a.dangerous_lanes != b.dangerous_lanes)
    os << "dangerous_lanes " << a_name << "=" << a.dangerous_lanes << " "
       << b_name << "=" << b.dangerous_lanes << "; ";
  if (a.detected_lanes != b.detected_lanes)
    os << "detected_lanes " << a_name << "=" << a.detected_lanes << " "
       << b_name << "=" << b.detected_lanes << "; ";
  os << std::dec;
  if (a.mismatch_cycles != b.mismatch_cycles)
    os << "mismatch_cycles " << a_name << "=" << a.mismatch_cycles << " "
       << b_name << "=" << b.mismatch_cycles << "; ";
  if (a.first_detect_cycle != b.first_detect_cycle)
    os << "first_detect_cycle " << a_name << "=" << a.first_detect_cycle
       << " " << b_name << "=" << b.first_detect_cycle << "; ";
  std::string detail = os.str();
  if (detail.empty()) return {};
  return std::string(oracle) + ": " + fault_name(nl, f) + ": " + detail;
}

}  // namespace

std::string diff_fault_oracles(const designs::Design& design,
                               const fault::CampaignConfig& config,
                               int max_faults, FaultBug bug) {
  const netlist::Netlist& nl = design.netlist;

  fault::CampaignConfig cone_cfg = config;
  cone_cfg.use_cone_restriction = true;
  // Only the levelized engine reads use_cone_restriction: the naive leg
  // must run it, or it is the cone leg's own pass a second time.
  fault::CampaignConfig naive_cfg = config;
  naive_cfg.engine = fault::FiEngine::kLevelized;
  naive_cfg.use_cone_restriction = false;

  fault::FaultCampaign cone(nl, design.stimulus, cone_cfg);
  fault::FaultCampaign naive(nl, design.stimulus, naive_cfg);
  cone.run_golden();
  naive.run_golden();

  const auto universe = fault::full_fault_list(nl);
  if (universe.empty()) return {};
  const std::size_t stride =
      max_faults > 0
          ? std::max<std::size_t>(
                1, universe.size() / static_cast<std::size_t>(max_faults))
          : 1;

  for (std::size_t i = 0; i < universe.size(); i += stride) {
    const fault::Fault& f = universe[i];
    const fault::FaultResult rc = cone.simulate_fault(f);
    fault::FaultResult rn = naive.simulate_fault(f);
    if (bug == FaultBug::kNaiveMismatchOffByOne && i == 0)
      rn.mismatch_cycles += 1;
    const fault::FaultResult ri =
        injected_fault_result(design, config, cone, f);
    if (auto msg = compare_fault_results(nl, f, rc, rn, "cone", "naive");
        !msg.empty())
      return msg;
    if (auto msg = compare_fault_results(nl, f, rc, ri, "cone", "injected");
        !msg.empty())
      return msg;
    if (rc.cone_size > rn.cone_size)
      return "fault-oracle: " + fault_name(nl, f) +
             ": cone_size exceeds naive re-simulation size";
  }
  return {};
}

std::string diff_campaign_equivalence(const designs::Design& design,
                                      const fault::CampaignConfig& config,
                                      int max_faults, CampaignBug bug) {
  const netlist::Netlist& nl = design.netlist;

  // Reference leg: the levelized cone sweep, single-threaded. Its campaign
  // object doubles as the golden-trace holder for the injected replay.
  fault::CampaignConfig ref_cfg = config;
  ref_cfg.engine = fault::FiEngine::kLevelized;
  ref_cfg.use_cone_restriction = true;
  ref_cfg.num_threads = 1;
  fault::FaultCampaign ref_campaign(nl, design.stimulus, ref_cfg);
  const fault::CampaignResult ref = ref_campaign.run_all();
  if (ref.faults.empty()) return {};

  struct Leg {
    std::string name;
    fault::CampaignConfig cfg;
  };
  std::vector<Leg> legs;
  {
    fault::CampaignConfig fc = config;
    fc.engine = fault::FiEngine::kFrontier;
    fc.collapse_equivalent = false;
    fc.num_threads = 1;
    legs.push_back({"frontier", fc});
    for (const int threads : {1, 2, 4}) {
      fc.collapse_equivalent = true;
      fc.num_threads = threads;
      legs.push_back({"frontier@" + std::to_string(threads) + "t", fc});
    }
  }

  for (const Leg& leg : legs) {
    fault::FaultCampaign campaign(nl, design.stimulus, leg.cfg);
    fault::CampaignResult r = campaign.run_all();

    // Planted defects corrupt exactly one leg (frontier@2t) so the
    // self-test proves the comparison below has teeth.
    if (leg.name == "frontier@2t" && bug != CampaignBug::kNone &&
        !r.faults.empty()) {
      if (bug == CampaignBug::kMismatchOffByOne) {
        r.faults.front().mismatch_cycles += 1;
      } else if (bug == CampaignBug::kDropDetection) {
        for (auto& fr : r.faults)
          if (fr.detected_lanes) {
            fr.detected_lanes = 0;
            break;
          }
      }
    }

    if (r.faults.size() != ref.faults.size())
      return "campaign-oracle: leg '" + leg.name + "' returned " +
             std::to_string(r.faults.size()) + " verdicts, reference " +
             std::to_string(ref.faults.size());
    for (std::size_t i = 0; i < ref.faults.size(); ++i) {
      const fault::FaultResult& a = ref.faults[i];
      const fault::FaultResult& b = r.faults[i];
      if (a.fault.node != b.fault.node ||
          a.fault.stuck_value != b.fault.stuck_value)
        return "campaign-oracle: leg '" + leg.name +
               "' reordered the fault universe at index " +
               std::to_string(i);
      if (auto msg = compare_fault_results(nl, a.fault, a, b, "cone",
                                           leg.name.c_str(),
                                           "campaign-oracle");
          !msg.empty())
        return msg;
    }
  }

  // Engine-independent replay: serial fault injection through
  // PackedSimulator::inject on a deterministic strided subset.
  auto stride_for = [&](std::size_t items) {
    return max_faults > 0
               ? std::max<std::size_t>(
                     1, items / static_cast<std::size_t>(max_faults))
               : 1;
  };
  for (std::size_t i = 0; i < ref.faults.size();
       i += stride_for(ref.faults.size())) {
    const fault::FaultResult& a = ref.faults[i];
    const fault::FaultResult ri =
        injected_fault_result(design, ref_cfg, ref_campaign, a.fault);
    if (auto msg = compare_fault_results(nl, a.fault, a, ri, "cone",
                                         "injected", "campaign-oracle");
        !msg.empty())
      return msg;
  }

  // Transient (SEU) leg: the frontier pass against the levelized sweep on
  // strided sites, each flipped on the first, middle and last cycle.
  fault::CampaignConfig seu_cfg = config;
  seu_cfg.engine = fault::FiEngine::kFrontier;
  fault::FaultCampaign seu_campaign(nl, design.stimulus, seu_cfg);
  seu_campaign.run_golden();
  const std::vector<NodeId> sites = fault::fault_sites(nl);
  const int last = config.cycles - 1;
  for (std::size_t i = 0; i < sites.size(); i += stride_for(sites.size())) {
    for (const int cycle : {0, last / 2, last}) {
      const auto want = ref_campaign.simulate_transient(sites[i], cycle);
      const auto got = seu_campaign.simulate_transient(sites[i], cycle);
      if (got.affected_lanes != want.affected_lanes ||
          got.mismatch_cycles != want.mismatch_cycles) {
        std::ostringstream os;
        os << "campaign-oracle: transient " << nl.node(sites[i]).name << " @"
           << cycle << ": affected_lanes cone=" << std::hex
           << want.affected_lanes << " frontier=" << got.affected_lanes
           << std::dec << " mismatch_cycles cone=" << want.mismatch_cycles
           << " frontier=" << got.mismatch_cycles;
        return os.str();
      }
    }
  }
  return {};
}

std::string diff_dataflow_facts(const designs::Design& design) {
  const sla::DataflowAnalysis analysis =
      sla::DataflowAnalysis::run(design.netlist);
  std::string why;
  if (!sla::verify_facts(design.netlist, analysis, &why))
    return "dataflow-oracle: fact certificate rejected: " + why;
  return {};
}

namespace {

bool is_word_byte(char c) {
  const auto u = static_cast<unsigned char>(c);
  return (u >= '0' && u <= '9') || (u >= 'A' && u <= 'Z') ||
         (u >= 'a' && u <= 'z') || c == '_' || c == '\'' || c == '$';
}

/// A `.PIN(NET)` group of an instance: [begin, end) spans the group and
/// [net_begin, net_end) the net.
struct PinGroup {
  std::size_t begin, end, net_begin, net_end;
};

std::vector<PinGroup> pin_groups(const std::string& t) {
  std::vector<PinGroup> groups;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i] != '.') continue;
    std::size_t j = i + 1;
    while (j < t.size() && is_word_byte(t[j])) ++j;
    if (j == i + 1 || j >= t.size() || t[j] != '(') continue;
    std::size_t k = j + 1;
    while (k < t.size() && is_word_byte(t[k])) ++k;
    if (k == j + 1 || k >= t.size() || t[k] != ')') continue;
    groups.push_back({i, k + 1, j + 1, k});
  }
  return groups;
}

/// [begin, end) of every line (its newline included) that contains `what`.
std::vector<std::pair<std::size_t, std::size_t>> lines_with(
    const std::string& t, std::string_view what) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  for (std::size_t b = 0; b < t.size();) {
    std::size_t e = t.find('\n', b);
    e = e == std::string::npos ? t.size() : e + 1;
    if (std::string_view(t).substr(b, e - b).find(what) !=
        std::string_view::npos)
      lines.emplace_back(b, e);
    b = e;
  }
  return lines;
}

/// One seeded edit of a Verilog text; appends its name to `recipe`. An
/// edit with nothing to act on (no pin left, say) leaves the text alone.
void mutate_once(std::string& t, util::Rng& rng, std::string& recipe) {
  auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  auto note = [&](const std::string& what) {
    recipe += recipe.empty() ? what : ", " + what;
  };
  // Bytes that steer the lexer: delimiters, comment starts, line ends,
  // NUL and a high byte, besides any random byte.
  static constexpr char kPickBytes[] = "();,.=/*\n\r\0\x80'_ aZ9";
  static constexpr std::string_view kPicks{kPickBytes, sizeof kPickBytes - 1};
  const int op = static_cast<int>(rng.next_below(10));
  if (t.empty() && op < 4) return;
  switch (op) {
    case 0: {  // flip
      const std::size_t p = below(t.size());
      const char c = rng.next_bool()
                         ? kPicks[below(kPicks.size())]
                         : static_cast<char>(rng.next_below(256));
      t[p] = c;
      note("flip@" + std::to_string(p) + "=" +
           std::to_string(static_cast<unsigned char>(c)));
      return;
    }
    case 1: {  // truncate
      const std::size_t p = below(t.size());
      t.resize(p);
      note("truncate@" + std::to_string(p));
      return;
    }
    case 2: {  // delete
      const std::size_t p = below(t.size());
      const std::size_t n = 1 + below(16);
      t.erase(p, n);
      note("delete@" + std::to_string(p) + "+" + std::to_string(n));
      return;
    }
    case 3: {  // splice a chunk from elsewhere
      const std::size_t from = below(t.size());
      const std::size_t n = std::min(t.size() - from, 1 + below(64));
      const std::size_t at = below(t.size() + 1);
      t.insert(at, t.substr(from, n));
      note("splice@" + std::to_string(at) + "<-" + std::to_string(from) +
           "+" + std::to_string(n));
      return;
    }
    default:
      break;
  }
  const std::vector<PinGroup> pins = pin_groups(t);
  switch (op) {
    case 4: {  // rename a net: to another pin's net or a fresh name
      if (pins.empty()) return;
      const PinGroup& g = pins[below(pins.size())];
      const PinGroup& o = pins[below(pins.size())];
      const std::string to =
          rng.next_bool() ? t.substr(o.net_begin, o.net_end - o.net_begin)
                          : "nz" + std::to_string(below(1000));
      note("rename-net@" + std::to_string(g.net_begin) + "=" + to);
      t.replace(g.net_begin, g.net_end - g.net_begin, to);
      return;
    }
    case 5: {  // drop a net's driver: an instance or an assign line
      auto lines = lines_with(t, " (.");
      const auto assigns = lines_with(t, "assign ");
      lines.insert(lines.end(), assigns.begin(), assigns.end());
      if (lines.empty()) return;
      const auto [b, e] = lines[below(lines.size())];
      note("drop-net@" + std::to_string(b));
      t.erase(b, e - b);
      return;
    }
    case 6: {  // drop a pin with its separator
      if (pins.empty()) return;
      const PinGroup& g = pins[below(pins.size())];
      std::size_t b = g.begin;
      std::size_t e = g.end;
      if (b >= 2 && t.compare(b - 2, 2, ", ") == 0)
        b -= 2;
      else if (t.compare(e, 2, ", ") == 0)
        e += 2;
      note("drop-pin@" + std::to_string(g.begin));
      t.erase(b, e - b);
      return;
    }
    case 7: {  // repeat a pin
      if (pins.empty()) return;
      const PinGroup& g = pins[below(pins.size())];
      note("repeat-pin@" + std::to_string(g.begin));
      t.insert(g.end, ", " + t.substr(g.begin, g.end - g.begin));
      return;
    }
    case 8: {  // duplicate an instance
      const auto lines = lines_with(t, " (.");
      if (lines.empty()) return;
      const auto [b, e] = lines[below(lines.size())];
      note("dup-instance@" + std::to_string(b));
      t.insert(e, t.substr(b, e - b));
      return;
    }
    default: {  // change the case of a cell name
      const auto lines = lines_with(t, " (.");
      if (lines.empty()) return;
      std::size_t p = lines[below(lines.size())].first;
      while (p < t.size() && t[p] == ' ') ++p;
      note("cell-case@" + std::to_string(p));
      for (; p < t.size() && is_word_byte(t[p]); ++p) {
        const char c = t[p];
        if (c >= 'A' && c <= 'Z') t[p] = static_cast<char>(c - 'A' + 'a');
        else if (c >= 'a' && c <= 'z') t[p] = static_cast<char>(c - 'a' + 'A');
      }
      return;
    }
  }
}

struct ParseOutcome {
  bool threw = false;
  std::string error;
  netlist::VerilogParse parse;
};

template <typename F>
ParseOutcome run_parse(F&& parse) {
  ParseOutcome o;
  try {
    o.parse = parse();
  } catch (const std::exception& e) {
    o.threw = true;
    o.error = e.what();
  }
  return o;
}

/// "" when the outcomes agree exactly, else the first difference.
std::string compare_parses(const ParseOutcome& got, const ParseOutcome& ref) {
  if (got.threw || ref.threw) {
    if (got.threw != ref.threw)
      return got.threw ? "parser threw '" + got.error +
                             "', the reference parsed"
                       : "the reference threw '" + ref.error +
                             "', the parser did not";
    if (got.error != ref.error)
      return "error '" + got.error + "', reference '" + ref.error + "'";
    return {};
  }
  const auto& gi = got.parse.issues;
  const auto& ri = ref.parse.issues;
  for (std::size_t k = 0; k < std::max(gi.size(), ri.size()); ++k) {
    auto show = [](const std::vector<netlist::ParseIssue>& v, std::size_t k) {
      return k < v.size() ? v[k].rule + " line " + std::to_string(v[k].line) +
                                ": " + v[k].message
                          : std::string("(none)");
    };
    if (k >= gi.size() || k >= ri.size() || gi[k].rule != ri[k].rule ||
        gi[k].line != ri[k].line || gi[k].message != ri[k].message)
      return "issue " + std::to_string(k) + ": '" + show(gi, k) +
             "', reference '" + show(ri, k) + "'";
  }
  const netlist::Netlist& a = got.parse.netlist;
  const netlist::Netlist& b = ref.parse.netlist;
  if (a.name() != b.name()) return "module names differ";
  if (a.num_nodes() != b.num_nodes())
    return std::to_string(a.num_nodes()) + " nodes, reference " +
           std::to_string(b.num_nodes());
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    const netlist::Node& x = a.node(id);
    const netlist::Node& y = b.node(id);
    if (x.kind != y.kind || x.name != y.name ||
        !std::ranges::equal(x.fanins(), y.fanins()))
      return "node " + std::to_string(id) + " ('" + x.name +
             "') differs from the reference's ('" + y.name + "')";
  }
  if (a.inputs() != b.inputs()) return "input lists differ";
  if (a.outputs().size() != b.outputs().size())
    return "output counts differ";
  for (std::size_t k = 0; k < a.outputs().size(); ++k)
    if (a.outputs()[k].name != b.outputs()[k].name ||
        a.outputs()[k].driver != b.outputs()[k].driver)
      return "output " + std::to_string(k) + " differs";
  if (netlist::to_verilog(a) != netlist::to_verilog(b))
    return "export bytes differ";
  return {};
}

}  // namespace

std::string diff_verilog_parse(const designs::Design& design,
                               std::uint64_t seed, ParseBug bug,
                               ParseSplit* split) {
  const std::string exported = netlist::to_verilog(design.netlist);
  util::Rng rng(seed ^ 0x7061727365ULL);
  for (int input = 0; input <= kParseMutants; ++input) {
    std::string text = exported;
    std::string recipe;
    const int edits = input == 0 ? 0 : 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < edits; ++k) mutate_once(text, rng, recipe);
    if (recipe.empty()) recipe = "unmutated export";

    const ParseOutcome got =
        run_parse([&] { return netlist::parse_verilog_collect(text); });
    ParseOutcome ref =
        run_parse([&] { return reference_parse_verilog_collect(text); });
    if (bug == ParseBug::kIssueLineOffByOne && !ref.threw &&
        !ref.parse.issues.empty())
      ref.parse.issues.front().line += 1;
    if (split) {
      if (ref.threw) ++split->throws;
      else if (ref.parse.issues.empty()) ++split->clean;
      else ++split->with_issues;
    }
    if (const std::string diff = compare_parses(got, ref); !diff.empty()) {
      std::string msg = "parse-oracle: input " + std::to_string(input);
      msg += " [" + recipe + "]: ";
      return msg + diff;
    }
  }
  return {};
}

namespace {

/// A deterministic untrained bundle for the design: forward passes through
/// freshly-initialized GCNs are as good as trained ones for a bit-identity
/// oracle, and skip minutes of training per fuzz trial.
serve::ModelBundle make_check_bundle(const designs::Design& design,
                                     std::uint64_t seed) {
  serve::ModelBundle b;
  b.manifest.design_name = design.name;
  b.manifest.netlist_hash = serve::netlist_content_hash(design.netlist);
  b.manifest.feature_width = graphir::kNumBaseFeatures;
  b.manifest.feature_names = graphir::base_feature_names();
  b.manifest.probability_cycles = 24;
  b.manifest.probability_seed = seed ^ 0x9e3779b9ULL;
  b.stimulus = design.stimulus;
  b.standardizer.mean.assign(graphir::kNumBaseFeatures, 0.0);
  b.standardizer.stddev.assign(graphir::kNumBaseFeatures, 1.0);
  ml::GcnConfig cc = ml::GcnConfig::classifier();
  cc.hidden = {8};
  cc.dropout_after = -1;  // one hidden conv: no Dropout position
  cc.seed = seed;
  b.classifier =
      std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, cc);
  ml::GcnConfig rc = ml::GcnConfig::regressor();
  rc.hidden = {8};
  rc.dropout_after = -1;
  rc.seed = seed + 1;
  b.regressor = std::make_unique<ml::GcnModel>(graphir::kNumBaseFeatures, rc);
  return b;
}

struct DirectScore {
  std::vector<double> proba;
  std::vector<int> predicted;
  std::vector<double> score;
  std::string graph_divergence;  // "" when build_graph matched the reference
};

/// In-process replay of the scoring pipeline straight from the bundle
/// artifact — no engine, no cache, no worker pool — over the reference
/// graph build, which graphir::build_graph must match byte for byte. The
/// models run the layer-by-layer Pass::kEval, not the engine's infer().
DirectScore direct_score(const designs::Design& design,
                         const std::string& bundle_path) {
  const serve::ModelBundle bundle = serve::load_bundle_file(bundle_path);
  const netlist::Netlist& nl = design.netlist;
  const auto stats = sim::estimate_by_simulation(
      nl, bundle.stimulus, bundle.manifest.probability_seed,
      bundle.manifest.probability_cycles);
  const ml::Matrix x =
      bundle.standardizer.transform(graphir::extract_features(nl, stats));
  const graphir::CircuitGraph graph = reference_build_graph(nl);

  DirectScore d;
  d.graph_divergence = diff_graphs(graphir::build_graph(nl), graph);
  ml::GcnModel classifier = ml::clone_gcn(*bundle.classifier);
  classifier.set_adjacency(&graph.normalized_adjacency);
  const ml::Matrix& out = classifier.forward(x, ml::Pass::kEval);
  d.proba = ml::class1_probability(out);
  d.predicted = ml::predict_labels(out);
  ml::GcnModel regressor = ml::clone_gcn(*bundle.regressor);
  regressor.set_adjacency(&graph.normalized_adjacency);
  const ml::Matrix& pred = regressor.forward(x, ml::Pass::kEval);
  d.score.resize(static_cast<std::size_t>(pred.rows()));
  for (int i = 0; i < pred.rows(); ++i)
    d.score[static_cast<std::size_t>(i)] = static_cast<double>(pred(i, 0));
  return d;
}

std::string compare_scores(const serve::ScoreResult& r,
                           const DirectScore& ref, const char* leg) {
  if (r.proba != ref.proba)
    return std::string("serve-oracle: ") + leg +
           ": classifier probabilities differ from direct scoring";
  if (r.predicted != ref.predicted)
    return std::string("serve-oracle: ") + leg +
           ": predicted classes differ from direct scoring";
  if (r.score != ref.score)
    return std::string("serve-oracle: ") + leg +
           ": regressor scores differ from direct scoring";
  return {};
}

}  // namespace

std::string diff_serve_vs_pipeline(const designs::Design& design,
                                   const std::string& scratch_dir,
                                   std::uint64_t seed) {
  namespace fs = std::filesystem;
  fs::create_directories(scratch_dir);
  const std::string tag = std::to_string(seed);
  const std::string bundle_path =
      (fs::path(scratch_dir) / ("check_" + tag + ".fcm")).string();
  const std::string netlist_path =
      (fs::path(scratch_dir) / ("check_" + tag + ".v")).string();
  serve::save_bundle_file(make_check_bundle(design, seed), bundle_path);
  {
    std::ofstream os(netlist_path);
    netlist::write_verilog(design.netlist, os);
  }

  const DirectScore ref = direct_score(design, bundle_path);
  if (!ref.graph_divergence.empty())
    return "serve-oracle: build_graph vs reference graph build: " +
           ref.graph_divergence;

  // The streamed content hash against the export -> parse -> export
  // reference, on the design and on its .v re-parse.
  const netlist::Netlist reparsed = [&] {
    std::ifstream is(netlist_path);
    return netlist::parse_verilog(is);
  }();
  for (const netlist::Netlist* nl : {&design.netlist, &reparsed}) {
    const std::uint64_t got = serve::netlist_content_hash(*nl);
    const std::uint64_t want = reference_content_hash(*nl);
    if (got != want) {
      std::ostringstream os;
      os << "serve-oracle: netlist_content_hash of the "
         << (nl == &reparsed ? ".v re-parse" : "design") << " is 0x"
         << std::hex << got << ", the round-trip reference 0x" << want;
      return os.str();
    }
  }

  serve::ScoringEngine engine(
      {.threads = 2, .queue_capacity = 8, .cache_capacity = 2});
  const serve::ScoreResult r1 = engine.score(bundle_path, design);
  if (!r1.netlist_matched)
    return "serve-oracle: bundle reports netlist hash mismatch against the "
           "very netlist it was packed from";
  if (auto msg = compare_scores(r1, ref, "engine.score"); !msg.empty())
    return msg;

  // Second synchronous request must be served from the LRU cache and stay
  // bit-identical.
  const serve::ScoreResult r2 = engine.score(bundle_path, design);
  if (auto msg = compare_scores(r2, ref, "cached engine.score");
      !msg.empty())
    return msg;
  if (engine.metrics().cache_hits == 0)
    return "serve-oracle: repeated score of one bundle produced no cache "
           "hit";

  // Worker-pool path on the Verilog round-trip of the same netlist: the
  // writer/parser pair is exact, so the hash must match the bundle's and
  // the results must still be bit-identical.
  std::vector<std::future<serve::ScoreResult>> futures;
  for (int i = 0; i < 2; ++i)
    futures.push_back(engine.submit(bundle_path, netlist_path));
  for (auto& fut : futures) {
    const serve::ScoreResult rs = fut.get();
    if (!rs.netlist_matched)
      return "serve-oracle: engine.submit on .v round-trip reports a "
             "netlist hash mismatch";
    if (auto msg = compare_scores(rs, ref, "engine.submit on .v round-trip");
        !msg.empty())
      return msg;
  }
  return {};
}

}  // namespace fcrit::check
