// Fault-injection campaign engine (the paper's Xcelium substitute).
//
// One golden pass records a cycle-consistent trace of every node value
// (64 workload lanes per word). Faults are then simulated differentially
// against that trace with one of two engines:
//
//   kLevelized — the original cone-restricted sweep: every node in the
//     fault's static transitive fanout (crossing flip-flops) is
//     re-evaluated every cycle; fanins outside the cone read the recorded
//     golden value. `use_cone_restriction=false` degenerates to the naive
//     full-netlist sweep (benchmark baseline). It is the reference the
//     frontier engine is checked against.
//
//   kFrontier — event-driven incremental resim, one pass per fault: per
//     cycle a worklist is seeded at the forced fault site and at
//     flip-flops whose state diverged on the previous edge; only nodes
//     with a divergent fanin word are re-evaluated, in ascending level
//     order through the fanout CSR, and propagation stops the moment a
//     node's word matches golden again (logic masking). A cycle with no
//     divergent seed is skipped without touching the trace and counted as
//     an early exit. Structural collapse-equivalence classes share one
//     pass (`collapse_equivalent`), and passes are sharded across the
//     process thread pool in input order.
//
// Both engines run one injection shape for both fault models: a site
// forced to (golden & keep) ^ flip on every cycle of [first, last]. A
// stuck-at fault is the whole window with keep = 0 and flip = the stuck
// word; a transient (SEU) is one cycle with keep = flip = ~0.
//
// Per cycle, primary outputs inside the cone are compared against the
// golden trace, giving a per-lane mismatch mask; a lane whose
// mismatch-cycle count reaches `min_mismatch_cycles` marks the fault
// "Dangerous" for that workload — the verdict Algorithm 1 aggregates.
// Both engines produce byte-identical FaultResults for every fault in the
// stuck-at universe, at any thread count and for any subset of the
// universe, and identical transient results (tests/fault_batch_test.cpp,
// tests/transient_test.cpp and the `fcrit check` campaign oracle hold
// this line).
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/levelize.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::fault {

/// Campaign simulation engine selection (see file comment).
enum class FiEngine {
  kLevelized,  // full cone sweep per cycle (original method)
  kFrontier,   // event-driven divergence frontier (default)
};

struct CampaignConfig {
  int cycles = 256;        // workload length in clock cycles
  std::uint64_t seed = 1;  // stimulus seed (same for golden and faulty)

  /// A lane (= workload) is "Dangerous" for a fault when the fraction of
  /// cycles with corrupted primary outputs reaches this value (a fault
  /// report's severity verdict: persistent functional corruption, not a
  /// single glitch). 0 degenerates to "any mismatch". Must lie in [0, 1];
  /// FaultCampaign rejects anything else, NaN included.
  double dangerous_cycle_fraction = 0.10;

  FiEngine engine = FiEngine::kFrontier;

  /// kLevelized only: disable to benchmark the naive full sweep.
  bool use_cone_restriction = true;

  /// No effect, kept so existing callers that assign them still compile:
  /// the frontier engine runs one pass per fault (`batch_faults`), and
  /// every fault is simulated — there is no static pre-pass
  /// (`static_prune`).
  bool batch_faults = true;
  bool static_prune = true;

  /// kFrontier only: simulate one representative per structural
  /// collapse-equivalence class (BUF/INV chain rule, src/fault/collapse)
  /// and share its verdict — exact, because equivalent faults corrupt the
  /// primary outputs identically; each member still reports its own
  /// cone_size.
  bool collapse_equivalent = true;

  /// Worker threads for the per-fault loop (the golden trace is shared
  /// read-only). -1 = inherit the process pool configured via --jobs /
  /// FCRIT_THREADS (util::num_threads), 0 = hardware concurrency,
  /// N >= 1 = exactly N. Results are bit-identical regardless of thread
  /// count.
  int num_threads = -1;

  /// Effective mismatch-cycle threshold implied by the fraction: the
  /// smallest cycle count whose fraction of `cycles` reaches
  /// `dangerous_cycle_fraction` — i.e. ceil(fraction * cycles), computed
  /// with a 1e-9 tolerance so fractions that land exactly on a cycle
  /// count (0.25 * 256 = 64) are not bumped by FP noise. Clamped to >= 1
  /// (fraction 0 degenerates to "any mismatch").
  int min_mismatch_cycles() const;
};

/// Per-fault campaign outcome.
struct FaultResult {
  Fault fault;
  std::uint64_t dangerous_lanes = 0;  // bit L: Dangerous under workload L
  std::uint64_t detected_lanes = 0;   // bit L: any PO mismatch at all
  std::uint32_t mismatch_cycles = 0;  // total mismatching (cycle, lane) pairs
  std::uint32_t cone_size = 0;        // #nodes in the fault's static cone
  /// First cycle with any PO corruption in any workload (-1: never).
  std::int32_t first_detect_cycle = -1;

  int dangerous_count() const;
  int detected_count() const;
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<FaultResult> faults;
  double golden_seconds = 0.0;  // the fi_golden span
  double fault_seconds = 0.0;   // the fi_plan + fi_sim spans
  std::size_t num_nodes = 0;

  // Frontier-engine statistics (zero under kLevelized).
  std::uint32_t simulated_faults = 0;   // after collapse-equivalence sharing
  std::uint32_t num_batches = 0;        // frontier passes (= simulated_faults)
  std::uint64_t frontier_evals = 0;     // node re-evaluations across passes
  std::uint64_t early_exit_cycles = 0;  // fault-cycles skipped as quiescent

  /// Always 0: no fault is pruned before simulation. Kept so existing
  /// readers still compile.
  std::uint32_t pruned_faults = 0;
  double triage_seconds = 0.0;
};

class FaultCampaign {
 public:
  FaultCampaign(const netlist::Netlist& nl, const sim::StimulusSpec& stimulus,
                CampaignConfig config);

  const CampaignConfig& config() const { return config_; }
  const netlist::Netlist& netlist() const { return *nl_; }
  bool golden_ready() const { return golden_ready_; }

  /// Run golden + every fault in `faults`.
  CampaignResult run(const std::vector<Fault>& faults);

  /// Convenience: run the full stuck-at universe.
  CampaignResult run_all();

  /// Golden value trace: word of node `id` during cycle `t` (valid after
  /// run()/run_golden()).
  std::uint64_t golden_value(int t, netlist::NodeId id) const {
    return trace_[static_cast<std::size_t>(t) * num_nodes_ + id];
  }

  /// Record the golden trace only (run() does this implicitly).
  void run_golden();

  /// Simulate a single fault against the recorded golden trace using the
  /// configured engine; throws std::runtime_error before the golden trace
  /// is recorded. Thread-safe once it is.
  FaultResult simulate_fault(const Fault& fault) const;

  /// Transient (SEU) injection: flip the node's value for exactly one
  /// cycle (a flip-flop's state as the cycle starts), then let the
  /// fault-free dynamics run on the corrupted state. Returns the lanes
  /// whose primary outputs were ever corrupted and the total corrupted
  /// (cycle, lane) count. Uses the configured engine, and is thread-safe,
  /// like simulate_fault.
  struct TransientResult {
    netlist::NodeId node = netlist::kNoNode;
    int inject_cycle = 0;
    std::uint64_t affected_lanes = 0;
    std::uint32_t mismatch_cycles = 0;
  };
  TransientResult simulate_transient(netlist::NodeId node,
                                     int inject_cycle) const;

  /// Per-node SEU criticality: fraction of (workload, injection-cycle)
  /// pairs whose outputs get corrupted, over the given injection cycles.
  std::vector<double> transient_criticality(
      const std::vector<netlist::NodeId>& nodes,
      const std::vector<int>& inject_cycles) const;

 private:
  struct FrontierScratch;  // per-worker frontier state; see fault_sim.cpp

  /// One injection, the shape both engines simulate: `site` is forced to
  /// (golden & keep) ^ flip on every cycle of [first, last] and evaluates
  /// normally outside it. The simulation starts at `first` from golden
  /// state.
  struct Injection {
    netlist::NodeId site;
    int first;
    int last;
    std::uint64_t keep;
    std::uint64_t flip;
  };

  /// Structure-of-arrays shadow of the netlist for the frontier hot path:
  /// byte-wide kinds, flat fanin slots, and the fanout CSR split into
  /// combinational edges (with the consumer's level pre-packed into the
  /// entry) and flip-flop edges — so the per-cycle worklist never touches
  /// the string-bearing Node structs or the level table.
  struct FrontierGraph {
    std::vector<std::uint8_t> kind;         // CellKind per node
    std::vector<std::uint8_t> fanin_count;  // per node
    std::vector<std::uint32_t> fanin;       // kMaxFanins slots per node
    std::vector<std::uint32_t> comb_off;    // num_nodes + 1 CSR offsets
    std::vector<std::uint64_t> comb_edge;   // level << 32 | consumer id
    std::vector<std::uint32_t> flop_off;    // num_nodes + 1 CSR offsets
    std::vector<std::uint32_t> flop_edge;   // DFF consumers
  };

  /// The cone_size the configured engine reports for a fault at `site`:
  /// the non-source nodes of netlist::fanout_cone from the site.
  std::uint32_t static_cone_size(netlist::NodeId site) const;
  void build_frontier_graph();
  Injection stuck_at(const Fault& fault) const;
  /// The two engines. Each fills the verdict fields, not `fault`; the
  /// levelized sweep also fills cone_size.
  FaultResult levelized_sweep(const Injection& inj) const;
  FaultResult frontier_pass(const Injection& inj, FrontierScratch& s) const;
  /// Dispatch on config().engine; `s` is used only by the frontier pass.
  FaultResult inject(const Injection& inj, FrontierScratch& s) const;
  TransientResult transient(netlist::NodeId node, int inject_cycle,
                            FrontierScratch& s) const;
  CampaignResult run_frontier(const std::vector<Fault>& faults);
  CampaignResult run_levelized(const std::vector<Fault>& faults);

  const netlist::Netlist* nl_;
  sim::StimulusSpec stimulus_;
  CampaignConfig config_;
  netlist::Levelization lev_;
  std::size_t num_nodes_ = 0;
  bool golden_ready_ = false;
  std::vector<std::uint64_t> trace_;  // cycles × nodes
  double golden_seconds_ = 0.0;
  std::vector<std::uint8_t> is_po_driver_;  // indexed by NodeId
  FrontierGraph fgraph_;
};

}  // namespace fcrit::fault
