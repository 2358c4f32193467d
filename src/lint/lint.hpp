// Structural static analysis over netlists and the graph IR.
//
// The lint layer is the input-hygiene gate in front of everything the
// framework computes: a fault verdict, a GCN label or an explainer ranking
// is only as good as the gate-level netlist it came from. Unlike
// Netlist::validate() — which checks representation invariants and throws —
// lint runs a registry of structural rules (combinational loops, dead
// cones, undriven fanins, duplicate names, constant-foldable logic,
// graph-IR/feature/split consistency) and reports *every* finding as a
// typed Diagnostic with a rule id, severity, located node and fix-it hint.
// LintReport renders the findings either human-readable or as one strict
// RFC-8259 JSON document (obs::json_valid-clean).
//
// Three consumers gate on it: the `fcrit lint` CLI verb (the full pass),
// the pipeline / serve preflight (only the rules that can report an error;
// error findings reject the input, wrapped in a LintError carrying the
// report), and the `fcrit check` fuzzer, which auto-lints shrunken repro
// circuits.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/graphir/graph.hpp"
#include "src/graphir/split.hpp"
#include "src/ml/matrix.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/verilog_parser.hpp"

namespace fcrit::lint {

enum class Severity : int {
  kNote = 0,     // stylistic / informational (constant-foldable logic)
  kWarning = 1,  // suspicious but simulatable (dead cones, DFF self-loops)
  kError = 2,    // the input is unfit for simulation or training
};

std::string_view to_string(Severity severity);

/// One finding of one rule at one location.
struct Diagnostic {
  std::string rule_id;
  Severity severity = Severity::kWarning;
  /// Located netlist node, kNoNode when the finding has no single node
  /// (parse-level findings, graph-IR findings).
  netlist::NodeId node = netlist::kNoNode;
  std::string node_name;  // instance/port name of `node`, or ""
  int line = 0;           // source line for parser findings, 0 otherwise
  std::string message;
  std::string fixit_hint;  // "" when no mechanical fix suggests itself
};

/// Every finding of a lint run plus severity bookkeeping.
struct LintReport {
  std::string target_name;
  std::vector<Diagnostic> diagnostics;

  void add(Diagnostic d) { diagnostics.push_back(std::move(d)); }

  std::size_t count(Severity severity) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }
  std::size_t notes() const { return count(Severity::kNote); }
  /// Findings at or above a severity threshold.
  std::size_t count_at_least(Severity severity) const;
  bool clean() const { return diagnostics.empty(); }

  /// Human-readable rendering: one line per finding plus a summary line.
  std::string to_string() const;

  /// One strict RFC-8259 JSON object:
  ///   {"target":..., "counts":{"error":N,"warning":N,"note":N},
  ///    "findings":[{"rule":...,"severity":...,"node":...,"node_id":N,
  ///                 "line":N,"message":...,"fixit":...}, ...]}
  std::string to_json() const;
};

/// Thrown by the pipeline / serve preflight gates when a lint run reports
/// error-severity findings; what() carries the full rendered report.
class LintError : public std::runtime_error {
 public:
  explicit LintError(LintReport report);
  const LintReport& report() const { return report_; }

 private:
  LintReport report_;
};

/// Static description of a registered rule (docs/LINT.md mirrors this).
struct RuleInfo {
  std::string_view id;
  Severity severity;  // the severity the rule reports at
  std::string_view summary;
};

/// Every rule id the netlist, parser and graph-IR passes can emit.
const std::vector<RuleInfo>& rule_catalog();

// ---- passes ----------------------------------------------------------------

/// Run every structural netlist rule, appending findings to `report`:
/// the preflight rules, then the advisory ones (warnings and notes, some
/// backed by the sla::DataflowAnalysis fixpoint). Tolerates unresolved
/// (kNoNode) fanins — they are themselves findings.
void lint_netlist(const netlist::Netlist& nl, LintReport& report);

/// Convenience wrapper returning a fresh report named after the netlist.
LintReport lint_netlist(const netlist::Netlist& nl);

/// The gate in front of scoring and analysis: exactly the netlist rules
/// whose catalog severity is error (undriven-fanin, duplicate-name,
/// comb-loop), through the same functions lint_netlist runs first, so its
/// findings are the error subset of lint_netlist's, in the same order.
/// Returns a report named after the netlist.
LintReport preflight(const netlist::Netlist& nl);

/// Map the Verilog parser's collected semantic issues (multi-driven nets,
/// unknown cells, undriven pins — each with its source line) onto typed
/// diagnostics.
void add_parse_issues(const std::vector<netlist::ParseIssue>& issues,
                      LintReport& report);

/// Graph-IR artifacts to cross-check against the netlist. Null members are
/// skipped, so callers lint whatever subset of the pipeline they hold.
struct GraphIrArtifacts {
  const graphir::CircuitGraph* graph = nullptr;
  const ml::Matrix* features = nullptr;      // rows must match node count
  const std::vector<int>* labels = nullptr;  // per node id, values in {0,1}
  const graphir::Split* split = nullptr;     // train/val node-id partitions
};

/// Consistency rules between the netlist and its derived graph IR:
/// adjacency/feature/label dimensions, edge sanity, split leakage and
/// coverage.
void lint_graphir(const netlist::Netlist& nl, const GraphIrArtifacts& a,
                  LintReport& report);

}  // namespace fcrit::lint
