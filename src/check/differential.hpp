// The six differential oracles of the correctness harness.
//
// Each check cross-examines a hand-optimized production path against an
// independent (slower, simpler) reference on the same design and returns a
// human-readable divergence description, or "" when the paths are
// bit-identical:
//
//   diff_packed_vs_scalar     PackedSimulator lane L  vs  a scalar
//                             single-pattern interpreter run per lane,
//                             every node value, every cycle
//   diff_fault_oracles        the configured engine's simulate_fault
//                             vs  naive full-netlist levelized
//                             re-simulation (use_cone_restriction=false)
//                             vs  serial fault injection through
//                             PackedSimulator::inject
//   diff_campaign_equivalence frontier campaign with collapse sharing
//                             (1/2/4 threads)  vs  unshared frontier  vs
//                             levelized cone reference, whole-universe
//                             run_all verdicts, plus serial
//                             PackedSimulator::inject replay on a
//                             strided fault subset, plus frontier vs
//                             levelized simulate_transient on a strided
//                             (site, cycle) sample
//   diff_dataflow_facts       static dataflow analysis (src/sla): the
//                             fixpoint's fact certificate vs the
//                             independent local checker verify_facts
//   diff_verilog_parse        the view-based Verilog reader vs the
//                             tokenizing reference reader
//                             (front_end_ref.hpp) on the design's export
//                             and seeded byte- and token-level mutants
//   diff_serve_vs_pipeline    serve::ScoringEngine (cache + worker pool)
//                             vs  direct in-process scoring of the same
//                             bundle artifact over the reference graph
//                             build; build_graph and the streamed content
//                             hash vs their references (front_end_ref.hpp)
//
// The harness (src/check/harness.hpp) drives these over a randomized
// netlist fuzzer; tests also aim them at the registered designs.
#pragma once

#include <cstdint>
#include <string>

#include "src/check/scalar_sim.hpp"
#include "src/designs/designs.hpp"
#include "src/fault/fault_sim.hpp"

namespace fcrit::check {

/// Run `cycles` clock cycles of the design's stimulus (seeded with `seed`)
/// through PackedSimulator and through one ScalarSimulator per lane and
/// compare every node word bit-for-bit after each combinational settle.
/// `bug` plants a deliberate defect in the scalar reference (self-test).
std::string diff_packed_vs_scalar(const designs::Design& design, int cycles,
                                  std::uint64_t seed,
                                  ScalarBug bug = ScalarBug::kNone);

/// Deliberate defect planted in the fault oracle's naive leg so tests (and
/// the CLI `--self-test`) can prove that leg is able to fail. kNone for
/// real checking.
enum class FaultBug {
  kNone = 0,
  /// Bump the naive leg's mismatch_cycles by one on the first fault.
  kNaiveMismatchOffByOne,
};

/// For up to `max_faults` faults (deterministically strided across the full
/// stuck-at universe), compare the configured engine's cone-restricted
/// verdict ("cone") against the naive levelized sweep over the whole
/// netlist ("naive") and against serial re-simulation with
/// PackedSimulator::inject ("injected"): dangerous_lanes, detected_lanes,
/// mismatch_cycles and first_detect_cycle must all agree exactly, and the
/// cone may not exceed the naive sweep's node count.
std::string diff_fault_oracles(const designs::Design& design,
                               const fault::CampaignConfig& config,
                               int max_faults, FaultBug bug = FaultBug::kNone);

/// Deliberate defects planted in one campaign leg so tests (and the CLI
/// `--self-test`) can prove the campaign oracle is able to fail. kNone
/// for real checking.
enum class CampaignBug {
  kNone = 0,
  /// Bump fault 0's mismatch_cycles in the frontier@2t leg by one.
  kMismatchOffByOne,
  /// Clear detected_lanes on the first detected fault of that leg.
  kDropDetection,
};

/// Run the full stuck-at campaign (run_all) through every engine leg —
/// levelized cone (the reference), frontier without collapse sharing, and
/// frontier with collapse sharing at 1, 2 and 4 threads — and require
/// byte-identical dangerous_lanes / detected_lanes / mismatch_cycles /
/// first_detect_cycle for every fault. Additionally replays up to
/// `max_faults` faults (strided across the universe) through serial
/// PackedSimulator::inject as an engine-independent reference, and
/// injects SEUs at up to `max_faults` strided fault sites, each on the
/// first, middle and last cycle, through both engines' simulate_transient.
std::string diff_campaign_equivalence(const designs::Design& design,
                                      const fault::CampaignConfig& config,
                                      int max_faults,
                                      CampaignBug bug = CampaignBug::kNone);

/// Run the static dataflow analysis (src/sla) on the design and require
/// its exported fact certificate to pass the independent verify_facts
/// checker — the facts lint's const-fold and reset-cone rules rely on.
std::string diff_dataflow_facts(const designs::Design& design);

/// Deliberate defect planted in the parse oracle's reference leg so tests
/// (and the CLI `--self-test`) can prove the oracle is able to fail.
enum class ParseBug {
  kNone = 0,
  /// Report the reference's first issue one line later.
  kIssueLineOffByOne,
};

/// The parse oracle's inputs by the reference reader's outcome.
struct ParseSplit {
  int clean = 0;        // parsed with no issue
  int with_issues = 0;  // parsed, issues recorded and repaired
  int throws = 0;       // syntax error
};

/// Inputs per parse-oracle run: the export plus this many mutants.
inline constexpr int kParseMutants = 48;

/// Parse the design's Verilog export and kParseMutants mutants of it,
/// derived from `seed`, through netlist::parse_verilog_collect and through
/// reference_parse_verilog_collect. A mutant applies one to three edits:
/// byte-level (flip, truncate, delete, splice from elsewhere in the text)
/// or token-level (rename a net, drop a net's driver, drop or repeat a
/// pin, duplicate an instance, change a cell name's case). On every input
/// both must throw the same text, or return the same issues (rule, line,
/// message) and the same netlist (name, node kinds, names, fanins, inputs,
/// outputs and export bytes). The divergence names the input's edits.
/// `split`, when non-null, accumulates the reference outcomes.
std::string diff_verilog_parse(const designs::Design& design,
                               std::uint64_t seed,
                               ParseBug bug = ParseBug::kNone,
                               ParseSplit* split = nullptr);

/// Pack a deterministic (untrained) model bundle for the design into
/// `scratch_dir`, score it through a multi-threaded ScoringEngine — twice
/// synchronously (second hit must come from the LRU cache) and once through
/// the worker-pool submit path on the design's .v export, which must report
/// netlist_matched — and compare every probability, class and score against
/// a direct in-process replay of the scoring pipeline. The replay builds its
/// graph with reference_build_graph and byte-compares graphir::build_graph
/// against it; netlist_content_hash must equal reference_content_hash on
/// the design and on its .v re-parse.
std::string diff_serve_vs_pipeline(const designs::Design& design,
                                   const std::string& scratch_dir,
                                   std::uint64_t seed);

}  // namespace fcrit::check
