// FaultTriage: partition a stuck-at fault universe into faults that are
// provably Benign and faults that must be simulated.
//
// Three proof shapes, in the order they are tried:
//
//   kSiteHoldsStuckValue  the constant lattice proves the fault site
//                         already carries the stuck value in every
//                         reachable cycle — forcing it changes nothing.
//   kDeadCone             the site cannot reach any primary output at
//                         all (fanout dominators / reachability).
//   kConstantBlocked      a divergence closure seeded at the site, which
//                         propagates through a gate only when the gate's
//                         ternary output with divergent fanins at X and
//                         clean fanins at their lattice values is not
//                         pinned by a controlling constant, never touches
//                         a primary-output driver. Reconvergent fanout is
//                         handled soundly: a corrupted "constant" side
//                         input is itself divergent and therefore X.
//
// Every pruned fault carries a ProofRecord; verify_proof() re-checks a
// record independently of the worklist that produced it (closure really
// closed, no output inside, every boundary edge really blocked). The
// soundness contract — pruning never changes any reported verdict — is
// enforced end-to-end by the `diff_static_prune` oracle in fcrit check,
// which re-simulates every pruned fault anyway.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/sla/dataflow.hpp"
#include "src/sla/dominators.hpp"

namespace fcrit::sla {

enum class TriageVerdict : std::uint8_t { kMustSimulate = 0, kProvedBenign = 1 };

enum class ProofKind : std::uint8_t {
  kNone = 0,
  kSiteHoldsStuckValue,
  kDeadCone,
  kConstantBlocked,
};

const char* proof_kind_name(ProofKind kind);

/// Machine-checkable evidence for one pruned fault.
struct ProofRecord {
  fault::Fault fault;
  ProofKind kind = ProofKind::kNone;
  /// kSiteHoldsStuckValue: the proved lattice value of the site.
  Ternary site_value = Ternary::kX;
  /// kDeadCone/kConstantBlocked: index into TriageResult::closures of the
  /// divergence set (shared by the SA0/SA1 pair of a site).
  std::int32_t closure = -1;
  /// Annotation: the site's lowest fanout post-dominator that stayed
  /// clean — the funnel where every divergence path provably died.
  /// kNoNode when the site has no dominator short of the virtual exit.
  netlist::NodeId blocked_dominator = netlist::kNoNode;
};

struct TriageRecord {
  TriageVerdict verdict = TriageVerdict::kMustSimulate;
  ProofKind kind = ProofKind::kNone;
  std::int32_t proof = -1;  // index into TriageResult::proofs when pruned
};

struct TriageResult {
  std::vector<TriageRecord> records;  // parallel to the input fault list
  std::vector<ProofRecord> proofs;    // one per pruned fault
  /// Divergence sets referenced by blocked/dead proofs, each sorted by
  /// node id and containing the seed site.
  std::vector<std::vector<netlist::NodeId>> closures;

  std::size_t proved_benign = 0;
  std::size_t must_simulate = 0;
  std::size_t count_site_const = 0;
  std::size_t count_dead_cone = 0;
  std::size_t count_const_blocked = 0;
};

/// Triage `faults` against the analysis. Cost: one reachability pass plus
/// one early-exiting divergence closure per unique observable site
/// (memoized across the SA0/SA1 pair) — comparable to the campaign's
/// per-site cone BFS.
TriageResult triage_faults(const netlist::Netlist& nl,
                           const DataflowAnalysis& analysis,
                           std::span<const fault::Fault> faults);

/// Convenience: dominators computed internally.
TriageResult triage_faults(const netlist::Netlist& nl,
                           const DataflowAnalysis& analysis,
                           const FanoutDominators& dom,
                           std::span<const fault::Fault> faults);

/// Independently re-check one proof record (assumes verify_facts already
/// vetted the analysis). Returns false with the first violation in *why.
bool verify_proof(const netlist::Netlist& nl, const DataflowAnalysis& analysis,
                  const TriageResult& triage, std::size_t proof_index,
                  std::string* why);

/// Constant-transparency influence closure: the set of nodes a change on
/// any seed could influence, propagating through a gate only when the
/// gate's output is not pinned by the lattice values of its untouched
/// fanins (flip-flop crossings always propagate). `stop_at_output` makes
/// the walk abort with std::nullopt as soon as a primary-output driver is
/// reached (the caller only cares about provable unobservability). The
/// result is sorted by node id and includes the seeds. Also the engine
/// behind the lint reset-cone rule.
std::optional<std::vector<netlist::NodeId>> divergence_closure(
    const netlist::Netlist& nl, const DataflowAnalysis& analysis,
    std::span<const netlist::NodeId> seeds, bool stop_at_output);

}  // namespace fcrit::sla
