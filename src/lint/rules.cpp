// The structural rule registry behind lint_netlist() / lint_graphir().
//
// Every rule is linear (or near-linear) in nodes + edges; the error rules
// alone form the preflight every serve request and pipeline run passes
// through, the full pass is `fcrit lint`. Rules walk consumers through
// Netlist::fanouts() and cones through netlist::fanout_cone/fanin_cone,
// all of which leave unresolved fanins out.
#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lint/lint.hpp"
#include "src/sla/dataflow.hpp"
#include "src/util/text.hpp"

namespace fcrit::lint {

namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;
using netlist::kNoNode;

bool is_const(CellKind kind) {
  return kind == CellKind::kConst0 || kind == CellKind::kConst1;
}

bool is_source(CellKind kind) {
  return kind == CellKind::kInput || is_const(kind);
}

Diagnostic at_node(const Netlist& nl, NodeId id, std::string rule,
                   Severity severity, std::string message,
                   std::string fixit) {
  Diagnostic d;
  d.rule_id = std::move(rule);
  d.severity = severity;
  d.node = id;
  d.node_name = nl.node(id).name;
  d.message = std::move(message);
  d.fixit_hint = std::move(fixit);
  return d;
}

/// Membership marks of a cone walk (netlist::fanout_cone/fanin_cone).
std::vector<char> marks(const Netlist& nl, const std::vector<NodeId>& cone) {
  std::vector<char> marked(nl.num_nodes(), 0);
  for (const NodeId id : cone) marked[id] = 1;
  return marked;
}

void rule_undriven_fanin(const Netlist& nl, LintReport& report) {
  const std::size_t n = nl.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const auto fanins = nl.fanins(id);
    for (std::size_t slot = 0; slot < fanins.size(); ++slot) {
      if (fanins[slot] < n) continue;
      report.add(at_node(
          nl, id, "undriven-fanin", Severity::kError,
          "fanin " + std::to_string(slot) + " of '" + nl.node(id).name +
              "' has no driver",
          "connect the pin or remove the gate"));
    }
  }
  for (const auto& port : nl.outputs()) {
    if (port.driver < n) continue;
    Diagnostic d;
    d.rule_id = "undriven-fanin";
    d.severity = Severity::kError;
    d.node_name = port.name;
    d.message = "output port '" + port.name + "' has no driver";
    d.fixit_hint = "drive the port or drop it from the port list";
    report.add(std::move(d));
  }
}

void rule_duplicate_name(const Netlist& nl, LintReport& report) {
  std::unordered_map<std::string, NodeId> seen;
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const auto [it, inserted] = seen.emplace(nl.node(id).name, id);
    if (inserted) continue;
    report.add(at_node(nl, id, "duplicate-name", Severity::kError,
                       "instance name '" + nl.node(id).name +
                           "' is already used by node " +
                           std::to_string(it->second),
                       "rename one of the instances"));
  }
  std::unordered_map<std::string, std::size_t> ports;
  for (const auto& port : nl.outputs()) {
    const auto [it, inserted] = ports.emplace(port.name, ports.size());
    if (inserted) continue;
    Diagnostic d;
    d.rule_id = "duplicate-name";
    d.severity = Severity::kError;
    d.node_name = port.name;
    d.message = "output port '" + port.name + "' is declared twice";
    d.fixit_hint = "rename one of the ports";
    report.add(std::move(d));
  }
}

/// DFS over edges u -> v restricted to non-DFF consumers v: every cycle in
/// that subgraph is a combinational loop (a DFF on the path would have to
/// be entered through its D pin, and those edges are excluded).
void rule_comb_loop(const Netlist& nl, LintReport& report) {
  constexpr int kMaxReported = 4;
  const std::size_t n = nl.num_nodes();
  // 0 = unvisited, 1 = on the current DFS path, 2 = finished.
  std::vector<char> state(n, 0);
  std::vector<NodeId> path;
  struct Frame {
    NodeId node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  int reported = 0;

  for (NodeId root = 0; root < n && reported < kMaxReported; ++root) {
    if (state[root] != 0) continue;
    stack.push_back({root, 0});
    state[root] = 1;
    path.push_back(root);
    while (!stack.empty() && reported < kMaxReported) {
      const NodeId u = stack.back().node;
      const auto children = nl.fanouts(u);
      bool descended = false;
      while (stack.back().next_child < children.size()) {
        const NodeId v = children[stack.back().next_child++];
        if (nl.kind(v) == CellKind::kDff) continue;  // path stops at state
        if (state[v] == 1) {
          // Back edge: the cycle is the path suffix starting at v.
          const auto begin = std::find(path.begin(), path.end(), v);
          std::string cycle;
          for (auto it = begin; it != path.end(); ++it) {
            if (!cycle.empty()) cycle += " -> ";
            cycle += nl.node(*it).name;
          }
          cycle += " -> " + nl.node(v).name;
          report.add(at_node(nl, v, "comb-loop", Severity::kError,
                             "combinational loop: " + cycle,
                             "break the cycle with a flip-flop"));
          if (++reported >= kMaxReported) break;
          continue;
        }
        if (state[v] == 0) {
          state[v] = 1;
          path.push_back(v);
          stack.push_back({v, 0});
          descended = true;
          break;
        }
      }
      if (!descended) {
        state[u] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
    stack.clear();
    // Any nodes left marked on-path (after an early cap exit) are done.
    for (const NodeId u : path) state[u] = 2;
    path.clear();
  }
}

/// The structurally-valid-netlist gate for the sla-backed rules: the
/// dataflow engine trusts fanin indices and requires an acyclic
/// combinational graph, both of which other rules in this pass exist to
/// diagnose. Returns nothing when the netlist is not analyzable.
std::optional<sla::DataflowAnalysis> try_analyze(const Netlist& nl) {
  const std::size_t n = nl.num_nodes();
  for (NodeId id = 0; id < n; ++id)
    for (const NodeId f : nl.fanins(id))
      if (f >= n) return std::nullopt;
  for (const auto& port : nl.outputs())
    if (port.driver >= n) return std::nullopt;
  try {
    return sla::DataflowAnalysis::run(nl);
  } catch (const std::exception&) {
    return std::nullopt;  // combinational loop — reported by comb-loop
  }
}

void rule_dead_logic(const Netlist& nl, const sla::DataflowAnalysis* df,
                     LintReport& report) {
  const std::size_t n = nl.num_nodes();
  std::vector<char> drives_output(n, 0);
  std::vector<NodeId> drivers;
  for (const auto& port : nl.outputs()) {
    if (port.driver < n) drives_output[port.driver] = 1;
    drivers.push_back(port.driver);
  }
  const std::vector<char> reaches_output =
      marks(nl, netlist::fanin_cone(nl, drivers));

  for (NodeId id = 0; id < n; ++id) {
    if (is_source(nl.kind(id)) || drives_output[id]) continue;
    if (nl.fanouts(id).empty()) {
      report.add(at_node(nl, id, "dead-gate", Severity::kWarning,
                         "'" + nl.node(id).name +
                             "' has no fanout and drives no primary output",
                         "remove it (fcrit sweep) or connect its output"));
    } else if (!reaches_output[id]) {
      report.add(at_node(
          nl, id, "dead-cone", Severity::kWarning,
          "'" + nl.node(id).name +
              "' cannot reach any primary output (dead cone)",
          "remove the cone (fcrit sweep) or route it to an output"));
    }
  }
  if (df == nullptr) return;

  // Static-dataflow extension: a gate that does reach an output
  // structurally, but whose every consumer is pinned by a controlling
  // constant on its other fanins, is just as dead — its value can never
  // move a single level. Same node-local blocking test as the divergence
  // closure (sla::output_stays_definite).
  for (NodeId id = 0; id < n; ++id) {
    if (is_source(nl.kind(id)) || drives_output[id]) continue;
    const auto fanouts = nl.fanouts(id);
    if (fanouts.empty() || !reaches_output[id]) continue;  // reported above
    const bool all_blocked =
        std::all_of(fanouts.begin(), fanouts.end(), [&](NodeId c) {
          return nl.kind(c) != CellKind::kDff && !drives_output[c] &&
                 sla::output_stays_definite(
                     nl, *df, c, [id](NodeId f) { return f == id; });
        });
    if (all_blocked) {
      report.add(at_node(
          nl, id, "dead-cone", Severity::kNote,
          "every fanout of '" + nl.node(id).name +
              "' is blocked by a controlling constant (static dataflow): "
              "the gate's value is unobservable",
          "remove it (fcrit sweep) or fix the blocking constant"));
    }
  }
}

void rule_input_unreachable(const Netlist& nl, LintReport& report) {
  const std::vector<char> reached =
      marks(nl, netlist::fanout_cone(nl, nl.inputs()));
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    if (is_source(nl.kind(id)) || reached[id]) continue;
    report.add(at_node(nl, id, "input-unreachable", Severity::kWarning,
                       "'" + nl.node(id).name +
                           "' is not influenced by any primary input",
                       "check for constant-only or isolated logic"));
  }
}

void rule_const_fold(const Netlist& nl, const sla::DataflowAnalysis* df,
                     LintReport& report) {
  const std::size_t n = nl.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const CellKind kind = nl.kind(id);
    if (is_source(kind)) continue;
    // Static dataflow first: the lattice proves constants the one-level
    // structural scan below cannot see (constants through reconvergence,
    // x AND !x, constant flops feeding back). At most one note per node.
    if (df != nullptr && sla::is_definite(df->value(id))) {
      const char v = sla::definite_value(df->value(id)) ? '1' : '0';
      report.add(at_node(
          nl, id, "const-fold", Severity::kNote,
          std::string(kind == CellKind::kDff ? "flip-flop '" : "'") +
              nl.node(id).name + "' provably holds constant " + v +
              " in every reachable cycle (static dataflow)",
          kind == CellKind::kDff ? "replace the flop with the constant"
                                 : "fold the gate to a constant"));
      continue;
    }
    int const_fanins = 0;
    int valid_fanins = 0;
    for (const NodeId f : nl.fanins(id)) {
      if (f >= n) continue;
      ++valid_fanins;
      if (is_const(nl.kind(f))) ++const_fanins;
    }
    if (const_fanins == 0 || valid_fanins == 0) continue;
    if (kind == CellKind::kDff) {
      report.add(at_node(nl, id, "const-fold", Severity::kNote,
                         "flip-flop '" + nl.node(id).name +
                             "' always reloads a constant",
                         "replace the flop with the constant"));
    } else if (const_fanins == valid_fanins) {
      report.add(at_node(nl, id, "const-fold", Severity::kNote,
                         "'" + nl.node(id).name +
                             "' computes a constant (all fanins are tied)",
                         "fold the gate to a constant"));
    } else {
      report.add(at_node(nl, id, "const-fold", Severity::kNote,
                         "'" + nl.node(id).name + "' has " +
                             std::to_string(const_fanins) +
                             " constant fanin(s)",
                         "propagate the constant and simplify"));
    }
  }
}

void rule_dff_self_loop(const Netlist& nl, LintReport& report) {
  for (const NodeId flop : nl.flops()) {
    const auto fanins = nl.fanins(flop);
    if (!fanins.empty() && fanins[0] == flop) {
      report.add(at_node(nl, flop, "dff-self-loop", Severity::kWarning,
                         "flip-flop '" + nl.node(flop).name +
                             "' feeds its own D input: it holds its reset "
                             "value forever",
                         "drive D from next-state logic"));
    }
  }
}

void rule_reset_cone(const Netlist& nl, const sla::DataflowAnalysis* df,
                     LintReport& report) {
  std::vector<NodeId> resets;
  for (const NodeId in : nl.inputs()) {
    const std::string lower = util::to_lower(nl.node(in).name);
    if (util::starts_with(lower, "rst") || util::starts_with(lower, "reset"))
      resets.push_back(in);
  }
  if (resets.empty()) return;  // no reset architecture to check

  // With the dataflow engine available, use its divergence closure: a
  // flop is influenced only when a reset toggle can actually propagate to
  // it, i.e. no controlling constant pins every path shut. Structural
  // forward reachability (the fallback) over-approximates that set, so
  // the delegated rule only ever finds more unresettable flops.
  if (df != nullptr) {
    const std::vector<NodeId> closure = sla::divergence_closure(
        nl, *df, std::span<const NodeId>(resets.data(), resets.size()));
    for (const NodeId flop : nl.flops()) {
      if (std::binary_search(closure.begin(), closure.end(), flop)) continue;
      report.add(at_node(nl, flop, "reset-cone", Severity::kNote,
                         "flip-flop '" + nl.node(flop).name +
                             "' is provably never influenced by a reset "
                             "input (static dataflow)",
                         "verify the flop's power-up behaviour"));
    }
    return;
  }
  const std::vector<char> influenced =
      marks(nl, netlist::fanout_cone(nl, resets));
  for (const NodeId flop : nl.flops()) {
    if (influenced[flop]) continue;
    report.add(at_node(nl, flop, "reset-cone", Severity::kNote,
                       "flip-flop '" + nl.node(flop).name +
                           "' is never influenced by a reset input",
                       "verify the flop's power-up behaviour"));
  }
}

/// The rules whose catalog severity is error.
void error_rules(const Netlist& nl, LintReport& report) {
  rule_undriven_fanin(nl, report);
  rule_duplicate_name(nl, report);
  rule_comb_loop(nl, report);
}

}  // namespace

LintReport preflight(const Netlist& nl) {
  LintReport report;
  report.target_name = nl.name();
  error_rules(nl, report);
  return report;
}

void lint_netlist(const Netlist& nl, LintReport& report) {
  if (report.target_name.empty()) report.target_name = nl.name();
  error_rules(nl, report);
  // Static dataflow analysis (src/sla) backs the const-fold, dead-cone
  // and reset-cone rules when the netlist is sound enough to analyze;
  // each falls back to its one-level structural check otherwise.
  const std::optional<sla::DataflowAnalysis> df = try_analyze(nl);
  const sla::DataflowAnalysis* dfp = df.has_value() ? &*df : nullptr;
  rule_dead_logic(nl, dfp, report);
  rule_input_unreachable(nl, report);
  rule_const_fold(nl, dfp, report);
  rule_dff_self_loop(nl, report);
  rule_reset_cone(nl, dfp, report);
}

LintReport lint_netlist(const Netlist& nl) {
  LintReport report;
  report.target_name = nl.name();
  lint_netlist(nl, report);
  return report;
}

void lint_graphir(const Netlist& nl, const GraphIrArtifacts& a,
                  LintReport& report) {
  if (report.target_name.empty()) report.target_name = nl.name();
  const auto n = static_cast<int>(nl.num_nodes());

  auto fail = [&](std::string rule, Severity severity, std::string message,
                  std::string fixit) {
    Diagnostic d;
    d.rule_id = std::move(rule);
    d.severity = severity;
    d.message = std::move(message);
    d.fixit_hint = std::move(fixit);
    report.add(std::move(d));
  };

  if (a.graph != nullptr) {
    const graphir::CircuitGraph& g = *a.graph;
    if (g.num_nodes != n)
      fail("graphir-consistency", Severity::kError,
           "graph has " + std::to_string(g.num_nodes) +
               " nodes, netlist has " + std::to_string(n),
           "rebuild the graph from this netlist");
    if (g.normalized_adjacency.rows() != g.num_nodes ||
        g.normalized_adjacency.cols() != g.num_nodes)
      fail("graphir-consistency", Severity::kError,
           "normalized adjacency is " +
               std::to_string(g.normalized_adjacency.rows()) + "x" +
               std::to_string(g.normalized_adjacency.cols()) + ", expected " +
               std::to_string(g.num_nodes) + " square",
           "rebuild the graph from this netlist");
    int bad_edges = 0;
    for (const auto& [u, v] : g.edges) {
      if (u < 0 || v < 0 || u >= g.num_nodes || v >= g.num_nodes || u >= v)
        ++bad_edges;
    }
    if (bad_edges > 0)
      fail("graphir-consistency", Severity::kError,
           std::to_string(bad_edges) +
               " edge(s) out of range, self-looping or not normalized "
               "(expected 0 <= u < v < nodes)",
           "rebuild the graph from this netlist");
  }

  if (a.features != nullptr && a.graph != nullptr &&
      a.features->rows() != a.graph->num_nodes)
    fail("graphir-consistency", Severity::kError,
         "feature matrix has " + std::to_string(a.features->rows()) +
             " rows, graph has " + std::to_string(a.graph->num_nodes) +
             " nodes",
         "re-extract features from this netlist");

  if (a.labels != nullptr) {
    if (static_cast<int>(a.labels->size()) != n) {
      fail("graphir-consistency", Severity::kError,
           "label vector has " + std::to_string(a.labels->size()) +
               " entries, netlist has " + std::to_string(n) + " nodes",
           "regenerate labels from the FI dataset");
    } else {
      int bad = 0;
      for (const int label : *a.labels)
        if (label != 0 && label != 1) ++bad;
      if (bad > 0)
        fail("graphir-consistency", Severity::kError,
             std::to_string(bad) + " label(s) outside {0, 1}",
             "regenerate labels from the FI dataset");
    }
  }

  if (a.split != nullptr) {
    const graphir::Split& split = *a.split;
    std::vector<char> in_train(static_cast<std::size_t>(std::max(n, 1)), 0);
    int out_of_range = 0;
    int leaked = 0;
    for (const int i : split.train) {
      if (i < 0 || i >= n) {
        ++out_of_range;
        continue;
      }
      in_train[static_cast<std::size_t>(i)] = 1;
    }
    std::string first_leak;
    for (const int i : split.val) {
      if (i < 0 || i >= n) {
        ++out_of_range;
        continue;
      }
      if (in_train[static_cast<std::size_t>(i)]) {
        ++leaked;
        if (first_leak.empty())
          first_leak = nl.node(static_cast<NodeId>(i)).name;
      }
    }
    if (out_of_range > 0)
      fail("split-coverage", Severity::kWarning,
           std::to_string(out_of_range) + " split index(es) out of range",
           "regenerate the split over this netlist's nodes");
    if (leaked > 0)
      fail("split-leak", Severity::kError,
           std::to_string(leaked) +
               " node(s) appear in both train and validation (first: '" +
               first_leak + "')",
           "regenerate the split; leakage inflates every metric");
    if (split.train.empty() || split.val.empty())
      fail("split-coverage", Severity::kWarning,
           std::string("empty ") +
               (split.train.empty() ? "train" : "validation") + " partition",
           "lower train_fraction or label more nodes");
  }
}

}  // namespace fcrit::lint
