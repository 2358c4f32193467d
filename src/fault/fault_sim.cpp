#include "src/fault/fault_sim.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "src/fault/collapse.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/packed_sim.hpp"
#include "src/util/parallel.hpp"

namespace fcrit::fault {

using netlist::CellKind;
using netlist::NodeId;

namespace {

bool is_source_kind(CellKind k) {
  return k == CellKind::kInput || k == CellKind::kConst0 ||
         k == CellKind::kConst1;
}

std::uint64_t fault_key(const Fault& f) {
  return (static_cast<std::uint64_t>(f.node) << 1) | (f.stuck_value ? 1 : 0);
}

/// Shard [0, items) over the lane count CampaignConfig::num_threads
/// resolves to: -1 = the process pool (--jobs / FCRIT_THREADS), otherwise
/// a private pool of exactly that many lanes (0 = hardware concurrency)
/// so an explicit request never reconfigures global state.
void shard(int num_threads, std::int64_t items, const util::ChunkFn& body) {
  if (items <= 0) return;
  if (num_threads < 0) {
    util::parallel_for(0, items, 1, body);
  } else {
    util::ThreadPool pool(num_threads);
    pool.parallel_for(0, items, 1, body);
  }
}

}  // namespace

int CampaignConfig::min_mismatch_cycles() const {
  // ceil(fraction * cycles) with a 1e-9 tolerance: the threshold is the
  // smallest cycle count whose fraction of the campaign reaches the
  // configured value, and exact products (0.25 * 256) must not be bumped
  // to the next integer by FP representation noise.
  const int k =
      static_cast<int>(std::ceil(dangerous_cycle_fraction * cycles - 1e-9));
  return k < 1 ? 1 : k;
}

int FaultResult::dangerous_count() const {
  return std::popcount(dangerous_lanes);
}

int FaultResult::detected_count() const {
  return std::popcount(detected_lanes);
}

FaultCampaign::FaultCampaign(const netlist::Netlist& nl,
                             const sim::StimulusSpec& stimulus,
                             CampaignConfig config)
    : nl_(&nl),
      stimulus_(stimulus),
      config_(config),
      lev_(netlist::levelize(nl)),
      num_nodes_(nl.num_nodes()) {
  if (config_.cycles <= 0)
    throw std::runtime_error("FaultCampaign: cycles must be positive");
  // Written so NaN fails too; inside [0, 1] min_mismatch_cycles() is at
  // most `cycles`, so its cast to int cannot overflow.
  if (!(config_.dangerous_cycle_fraction >= 0.0 &&
        config_.dangerous_cycle_fraction <= 1.0))
    throw std::runtime_error(
        "FaultCampaign: dangerous_cycle_fraction must lie in [0, 1]");
  is_po_driver_.assign(num_nodes_, 0);
  for (const auto& port : nl.outputs()) is_po_driver_[port.driver] = 1;
  build_frontier_graph();
}

void FaultCampaign::build_frontier_graph() {
  const std::size_t n = num_nodes_;
  FrontierGraph& g = fgraph_;
  g.kind.resize(n);
  g.fanin_count.resize(n);
  g.fanin.assign(n * netlist::kMaxFanins, 0);
  g.comb_off.assign(n + 1, 0);
  g.flop_off.assign(n + 1, 0);
  // Count edges per producer (offset slot id + 1, so the prefix sum lands
  // the counts in place), splitting DFF consumers from combinational ones.
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = nl_->node(id);
    g.kind[id] = static_cast<std::uint8_t>(node.kind);
    g.fanin_count[id] = node.fanin_count;
    auto& off = node.kind == CellKind::kDff ? g.flop_off : g.comb_off;
    for (std::size_t j = 0; j < node.fanin_count; ++j) {
      g.fanin[id * netlist::kMaxFanins + j] = node.fanin[j];
      ++off[node.fanin[j] + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.comb_off[i + 1] += g.comb_off[i];
    g.flop_off[i + 1] += g.flop_off[i];
  }
  g.comb_edge.resize(g.comb_off[n]);
  g.flop_edge.resize(g.flop_off[n]);
  std::vector<std::uint32_t> ccur(g.comb_off.begin(), g.comb_off.end() - 1);
  std::vector<std::uint32_t> fcur(g.flop_off.begin(), g.flop_off.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = nl_->node(id);
    if (node.kind == CellKind::kDff) {
      for (std::size_t j = 0; j < node.fanin_count; ++j)
        g.flop_edge[fcur[node.fanin[j]]++] = id;
    } else {
      const std::uint64_t entry =
          (static_cast<std::uint64_t>(lev_.level[id]) << 32) | id;
      for (std::size_t j = 0; j < node.fanin_count; ++j)
        g.comb_edge[ccur[node.fanin[j]]++] = entry;
    }
  }
}

void FaultCampaign::run_golden() {
  obs::Span span("fi_golden");
  sim::PackedSimulator simulator(*nl_);
  sim::StimulusGenerator stim(*nl_, stimulus_, config_.seed);
  trace_.assign(static_cast<std::size_t>(config_.cycles) * num_nodes_, 0);

  std::vector<std::uint64_t> words;
  for (int t = 0; t < config_.cycles; ++t) {
    stim.next_cycle(words);
    simulator.eval_comb(words);
    std::uint64_t* row = trace_.data() +
                         static_cast<std::size_t>(t) * num_nodes_;
    std::memcpy(row, simulator.values().data(),
                num_nodes_ * sizeof(std::uint64_t));
    simulator.clock();
  }
  // The fanout CSR cache must exist before worker threads race to read it.
  if (num_nodes_ > 0) nl_->fanouts(0);
  golden_ready_ = true;
  golden_seconds_ = span.close();
}

FaultCampaign::Injection FaultCampaign::stuck_at(const Fault& fault) const {
  return {fault.node, 0, config_.cycles - 1, 0,
          fault.stuck_value ? ~0ULL : 0};
}

FaultResult FaultCampaign::levelized_sweep(const Injection& inj) const {
  FaultResult result;

  // Cone membership.
  std::vector<std::uint8_t> in_cone(num_nodes_, 0);
  if (config_.use_cone_restriction) {
    for (const NodeId id : netlist::fanout_cone(*nl_, {&inj.site, 1}))
      in_cone[id] = 1;
  } else {
    std::fill(in_cone.begin(), in_cone.end(), 1);
  }
  // Primary inputs and constants always carry their golden values: they can
  // never lie in a fault's fanout (the fault universe excludes them), and
  // in naive mode the evaluation loop must read their stimulus from the
  // golden trace rather than the (zero-initialized) faulty value array.
  for (NodeId id = 0; id < num_nodes_; ++id) {
    if (is_source_kind(nl_->kind(id))) in_cone[id] = 0;
  }

  // Cone slices in evaluation order.
  std::vector<NodeId> cone_comb;
  for (const NodeId id : lev_.order)
    if (in_cone[id]) cone_comb.push_back(id);
  std::vector<NodeId> cone_ffs;
  for (const NodeId ff : nl_->flops())
    if (in_cone[ff]) cone_ffs.push_back(ff);
  std::vector<NodeId> cone_pos;
  for (const auto& port : nl_->outputs())
    if (in_cone[port.driver]) cone_pos.push_back(port.driver);
  result.cone_size = static_cast<std::uint32_t>(cone_comb.size() +
                                                cone_ffs.size());

  const bool site_is_flop = nl_->kind(inj.site) == CellKind::kDff;

  std::vector<std::uint64_t> val(num_nodes_, 0);  // cone values only
  // uint32: a uint16 counter wraps at 65536 cycles and can flip a Dangerous
  // lane back below the threshold on long campaigns.
  std::array<std::uint32_t, sim::kLanes> lane_mismatch_cycles{};
  std::array<std::uint64_t, netlist::kMaxFanins> ins{};
  std::vector<std::uint64_t> ff_next(cone_ffs.size(), 0);

  // The design is golden before the injection starts: cone flip-flops
  // enter cycle `first` in their recorded state.
  const std::uint64_t* first_row =
      trace_.data() + static_cast<std::size_t>(inj.first) * num_nodes_;
  for (const NodeId ff : cone_ffs) val[ff] = first_row[ff];

  for (int t = inj.first; t < config_.cycles; ++t) {
    const std::uint64_t* golden_row =
        trace_.data() + static_cast<std::size_t>(t) * num_nodes_;
    const bool forced = t <= inj.last;
    const std::uint64_t forced_word =
        (golden_row[inj.site] & inj.keep) ^ inj.flip;

    // A forced flip-flop holds the forced word as the cycle starts.
    if (forced && site_is_flop) val[inj.site] = forced_word;

    // Combinational evaluation restricted to the cone; everything outside
    // reads its recorded golden value.
    for (const NodeId id : cone_comb) {
      const netlist::Node& node = nl_->node(id);
      for (std::size_t i = 0; i < node.fanin_count; ++i) {
        const NodeId f = node.fanin[i];
        ins[i] = in_cone[f] ? val[f] : golden_row[f];
      }
      std::uint64_t v = netlist::eval_packed(
          node.kind, std::span(ins.data(), node.fanin_count));
      if (forced && id == inj.site) v = forced_word;
      val[id] = v;
    }

    // Compare primary outputs inside the cone against golden.
    std::uint64_t any_mismatch = 0;
    for (const NodeId po : cone_pos) any_mismatch |= val[po] ^ golden_row[po];
    if (any_mismatch) {
      if (result.first_detect_cycle < 0) result.first_detect_cycle = t;
      result.detected_lanes |= any_mismatch;
      result.mismatch_cycles +=
          static_cast<std::uint32_t>(std::popcount(any_mismatch));
      std::uint64_t m = any_mismatch;
      while (m) {
        const int lane = std::countr_zero(m);
        ++lane_mismatch_cycles[static_cast<std::size_t>(lane)];
        m &= m - 1;
      }
    }

    // Clock edge for cone flip-flops.
    for (std::size_t i = 0; i < cone_ffs.size(); ++i) {
      const NodeId d = nl_->node(cone_ffs[i]).fanin[0];
      ff_next[i] = in_cone[d] ? val[d] : golden_row[d];
    }
    for (std::size_t i = 0; i < cone_ffs.size(); ++i)
      val[cone_ffs[i]] = ff_next[i];
  }

  const auto threshold =
      static_cast<std::uint32_t>(config_.min_mismatch_cycles());
  for (int lane = 0; lane < sim::kLanes; ++lane) {
    if (lane_mismatch_cycles[static_cast<std::size_t>(lane)] >= threshold)
      result.dangerous_lanes |= (1ULL << lane);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Event-driven frontier engine.
// ---------------------------------------------------------------------------

/// Per-worker frontier state. The per-node arrays are epoch-stamped (one
/// epoch per simulated cycle), so reusing the scratch across faults never
/// requires an O(num_nodes) clear.
struct FaultCampaign::FrontierScratch {
  FrontierScratch(std::size_t num_nodes, int max_level)
      : div(num_nodes, DivState{0, 0}),
        queue_epoch(num_nodes, 0),
        buckets(static_cast<std::size_t>(max_level) + 1) {}

  /// A flip-flop whose state diverged on the last clock edge, with the
  /// faulty state word.
  struct DivFlop {
    netlist::NodeId ff;
    std::uint64_t value;
  };

  /// Divergence record per node, packed so one cache line carries both the
  /// "is it divergent this cycle" answer and the faulty word.
  struct DivState {
    std::uint64_t epoch;
    std::uint64_t val;
  };

  std::vector<DivState> div;               // divergence epoch + faulty word
  std::vector<std::uint64_t> queue_epoch;  // node queued this cycle
  std::vector<std::vector<netlist::NodeId>> buckets;  // worklist per level
  std::vector<netlist::NodeId> divergent_pos;  // PO drivers marked this cycle
  std::vector<netlist::NodeId> captures;       // flops capturing divergence
  std::vector<DivFlop> div_ffs, next_div_ffs;
  std::vector<std::uint64_t> sched;  // bit t: forced word != golden on t
  std::uint64_t epoch = 0;
  std::uint64_t evals = 0;        // nodes re-evaluated (frontier_evals)
  std::uint64_t early_exits = 0;  // quiesced fault-cycles (early_exit_cycles)
};

FaultResult FaultCampaign::frontier_pass(const Injection& inj,
                                         FrontierScratch& s) const {
  FaultResult out;
  const NodeId site = inj.site;

  // Divergence schedule, one strided sweep over the golden trace up
  // front: bit t says the forced word differs from golden on cycle t.
  // Quiet cycles are then decided from this bitmask (plus the carried
  // flop state) without touching the trace, which is what makes a
  // mostly-quiescent fault nearly free to simulate.
  s.sched.assign((static_cast<std::size_t>(config_.cycles) + 63) / 64, 0);
  for (int t = inj.first; t <= inj.last; ++t) {
    const std::uint64_t golden =
        trace_[static_cast<std::size_t>(t) * num_nodes_ + site];
    if (((golden & inj.keep) ^ inj.flip) != golden)
      s.sched[static_cast<std::size_t>(t) >> 6] |= 1ULL << (t & 63);
  }

  // uint32 for the same reason as levelized_sweep's counters.
  std::array<std::uint32_t, sim::kLanes> lane_cycles{};
  std::array<std::uint64_t, netlist::kMaxFanins> ins{};

  // Hot-loop state as raw pointers: the pass must never touch the
  // string-bearing Node structs or the shared fanout cache (FrontierGraph
  // is the SoA shadow built once per campaign).
  const FrontierGraph& g = fgraph_;
  const std::uint8_t* kind = g.kind.data();
  const std::uint8_t* fanin_count = g.fanin_count.data();
  const std::uint32_t* fanin = g.fanin.data();
  const std::uint32_t* comb_off = g.comb_off.data();
  const std::uint64_t* comb_edge = g.comb_edge.data();
  const std::uint32_t* flop_off = g.flop_off.data();
  const std::uint32_t* flop_edge = g.flop_edge.data();
  const std::uint8_t* is_po = is_po_driver_.data();
  FrontierScratch::DivState* div = s.div.data();
  std::uint64_t* queue_epoch = s.queue_epoch.data();
  const std::uint64_t* sched = s.sched.data();
  std::uint64_t evals = 0;
  s.div_ffs.clear();

  for (int t = inj.first; t < config_.cycles; ++t) {
    const std::size_t tw = static_cast<std::size_t>(t) >> 6;
    const std::uint64_t tb = 1ULL << (t & 63);
    if (!(sched[tw] & tb) && s.div_ffs.empty()) {
      // The fault is indistinguishable from golden this cycle, and no
      // divergent state survives from the previous one.
      ++s.early_exits;
      continue;
    }
    const std::uint64_t* golden_row =
        trace_.data() + static_cast<std::size_t>(t) * num_nodes_;
    const std::uint64_t ep = ++s.epoch;
    int min_lvl = lev_.max_level + 1;
    int max_lvl = -1;
    s.divergent_pos.clear();
    s.captures.clear();
    // A site still forced on the next cycle ignores this cycle's edge.
    const NodeId held = t < inj.last ? site : netlist::kNoNode;

    // Record a node's divergence from golden and schedule its fanout:
    // combinational consumers join the level-ordered worklist, flip-flops
    // capture the divergent D on this cycle's clock edge (unless the flop
    // is the held site). Forced inline: a call left out of line would
    // keep the worklist's level bounds in memory for the whole pass, and
    // GCC's size heuristics leave the two seeding calls out of line.
    auto mark_divergent = [&](NodeId n, std::uint64_t v)
        __attribute__((always_inline)) {
      div[n].epoch = ep;
      div[n].val = v;
      if (is_po[n]) s.divergent_pos.push_back(n);
      for (std::uint32_t e = comb_off[n]; e < comb_off[n + 1]; ++e) {
        const std::uint64_t entry = comb_edge[e];
        const NodeId c = static_cast<NodeId>(entry);
        if (queue_epoch[c] == ep) continue;
        queue_epoch[c] = ep;
        const int lvl = static_cast<int>(entry >> 32);
        s.buckets[static_cast<std::size_t>(lvl)].push_back(c);
        if (lvl < min_lvl) min_lvl = lvl;
        if (lvl > max_lvl) max_lvl = lvl;
      }
      for (std::uint32_t e = flop_off[n]; e < flop_off[n + 1]; ++e) {
        const NodeId c = flop_edge[e];
        if (c != held) s.captures.push_back(c);
      }
    };

    // Seed the frontier. While forced, the site first pre-claims its
    // worklist slot — a forced value never depends on its fanins, so even
    // when its own divergence wraps around through flip-flop state it must
    // not be re-evaluated; outside its forced cycles it is evaluated like
    // any other node. Then the site (when the schedule says its forced
    // word differs from golden this cycle) and flip-flops whose state
    // diverged on the previous clock edge (DFFs never appear in the
    // combinational CSR, so they are never queued).
    if (t <= inj.last) queue_epoch[site] = ep;
    if (sched[tw] & tb)
      mark_divergent(site, (golden_row[site] & inj.keep) ^ inj.flip);
    for (const auto& df : s.div_ffs) mark_divergent(df.ff, df.value);

    // Drain the worklist in ascending level order; marking a node only
    // ever queues strictly deeper levels, so one sweep settles the cycle
    // and every queued node is evaluated exactly once (queue_epoch dedups
    // at push time).
    for (int lvl = min_lvl; lvl <= max_lvl; ++lvl) {
      auto& bucket = s.buckets[static_cast<std::size_t>(lvl)];
      for (const NodeId n : bucket) {
        ++evals;
        const std::uint32_t* fi =
            fanin + static_cast<std::size_t>(n) * netlist::kMaxFanins;
        const std::size_t fc = fanin_count[n];
        // Branchless gather: whether a fanin is divergent this cycle is
        // data-dependent and unpredictable, so a select beats a branch
        // here by a wide margin.
        for (std::size_t j = 0; j < fc; ++j) {
          const NodeId f = fi[j];
          const std::uint64_t m =
              static_cast<std::uint64_t>(0) -
              static_cast<std::uint64_t>(div[f].epoch == ep);
          ins[j] = (div[f].val & m) | (golden_row[f] & ~m);
        }
        const std::uint64_t v =
            netlist::eval_packed(static_cast<CellKind>(kind[n]), ins.data());
        if (v != golden_row[n]) mark_divergent(n, v);
      }
      bucket.clear();
    }

    // Accumulate primary-output mismatches (the OR over divergent PO
    // drivers — same aggregation as the levelized sweep's any_mismatch).
    if (!s.divergent_pos.empty()) {
      std::uint64_t m = 0;
      for (const NodeId p : s.divergent_pos) m |= div[p].val ^ golden_row[p];
      if (m) {
        if (out.first_detect_cycle < 0)
          out.first_detect_cycle = static_cast<std::int32_t>(t);
        out.detected_lanes |= m;
        out.mismatch_cycles += static_cast<std::uint32_t>(std::popcount(m));
        while (m) {
          ++lane_cycles[static_cast<std::size_t>(std::countr_zero(m))];
          m &= m - 1;
        }
      }
    }

    // Clock edge: flops whose D diverged carry the divergence into the
    // next cycle; every other flop matches golden and simply drops out.
    s.next_div_ffs.clear();
    for (const NodeId ff : s.captures) {
      const NodeId d =
          fanin[static_cast<std::size_t>(ff) * netlist::kMaxFanins];
      s.next_div_ffs.push_back({ff, div[d].val});
    }
    s.div_ffs.swap(s.next_div_ffs);
  }
  s.evals += evals;

  const auto threshold =
      static_cast<std::uint32_t>(config_.min_mismatch_cycles());
  for (int lane = 0; lane < sim::kLanes; ++lane) {
    if (lane_cycles[static_cast<std::size_t>(lane)] >= threshold)
      out.dangerous_lanes |= (1ULL << lane);
  }
  return out;
}

FaultResult FaultCampaign::inject(const Injection& inj,
                                  FrontierScratch& s) const {
  return config_.engine == FiEngine::kLevelized ? levelized_sweep(inj)
                                                : frontier_pass(inj, s);
}

FaultResult FaultCampaign::simulate_fault(const Fault& fault) const {
  if (!golden_ready_)
    throw std::runtime_error("simulate_fault: golden trace not recorded");
  FrontierScratch scratch(num_nodes_, lev_.max_level);
  FaultResult result = inject(stuck_at(fault), scratch);
  result.fault = fault;
  result.cone_size = static_cone_size(fault.node);
  return result;
}

CampaignResult FaultCampaign::run_frontier(const std::vector<Fault>& faults) {
  CampaignResult out;
  out.config = config_;
  out.num_nodes = num_nodes_;
  const std::size_t n = faults.size();

  // sim_as[i]: the input index whose pass supplies fault i's verdict — the
  // first input occurrence of its collapse-equivalence representative when
  // one is present (the BUF/INV chain rule makes their PO corruption, and
  // so every verdict field, identical), otherwise i itself. cone_size
  // stays each fault's own, one BFS per distinct site.
  std::vector<std::uint32_t> sim_as(n);
  std::vector<std::uint32_t> simulated;  // the i with sim_as[i] == i
  std::vector<std::uint32_t> cone_size(n);
  {
    obs::Span span("fi_plan");
    CollapsedFaults collapsed;
    if (config_.collapse_equivalent) collapsed = collapse_faults(*nl_);
    std::unordered_map<std::uint64_t, std::uint32_t> first_index;
    first_index.reserve(n * 2);
    for (std::size_t i = 0; i < n; ++i)
      first_index.emplace(fault_key(faults[i]), static_cast<std::uint32_t>(i));
    std::unordered_map<NodeId, std::uint32_t> site_cone;
    for (std::size_t i = 0; i < n; ++i) {
      Fault rep = faults[i];
      if (config_.collapse_equivalent) {
        const Fault& r = collapsed.representative(faults[i]);
        if (r.node != netlist::kNoNode) rep = r;
      }
      const auto it = first_index.find(fault_key(rep));
      sim_as[i] = it != first_index.end() ? it->second
                                          : static_cast<std::uint32_t>(i);
      if (sim_as[i] == i) simulated.push_back(static_cast<std::uint32_t>(i));
      const auto [cone, fresh] = site_cone.try_emplace(faults[i].node, 0);
      if (fresh) cone->second = static_cone_size(faults[i].node);
      cone_size[i] = cone->second;
    }
    out.fault_seconds = span.close();
  }

  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> early{0};
  {
    obs::Span span("fi_sim");
    out.faults.resize(n);
    shard(config_.num_threads, static_cast<std::int64_t>(simulated.size()),
          [&](std::int64_t j0, std::int64_t j1) {
            FrontierScratch scratch(num_nodes_, lev_.max_level);
            for (std::int64_t j = j0; j < j1; ++j) {
              const std::uint32_t i = simulated[static_cast<std::size_t>(j)];
              out.faults[i] = frontier_pass(stuck_at(faults[i]), scratch);
            }
            evals.fetch_add(scratch.evals, std::memory_order_relaxed);
            early.fetch_add(scratch.early_exits, std::memory_order_relaxed);
          });
    for (std::size_t i = 0; i < n; ++i) {
      if (sim_as[i] != i) out.faults[i] = out.faults[sim_as[i]];
      out.faults[i].fault = faults[i];
      out.faults[i].cone_size = cone_size[i];
    }
    out.fault_seconds += span.close();
  }

  out.simulated_faults = static_cast<std::uint32_t>(simulated.size());
  out.num_batches = out.simulated_faults;
  out.frontier_evals = evals.load();
  out.early_exit_cycles = early.load();
  return out;
}

CampaignResult FaultCampaign::run_levelized(const std::vector<Fault>& faults) {
  CampaignResult out;
  out.config = config_;
  out.num_nodes = num_nodes_;
  obs::Span span("fi_sim");
  out.faults.resize(faults.size());
  shard(config_.num_threads, static_cast<std::int64_t>(faults.size()),
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const Fault& f = faults[static_cast<std::size_t>(i)];
            FaultResult& r = out.faults[static_cast<std::size_t>(i)];
            r = levelized_sweep(stuck_at(f));
            r.fault = f;
          }
        });
  out.fault_seconds = span.close();
  return out;
}

std::uint32_t FaultCampaign::static_cone_size(NodeId site) const {
  if (config_.engine == FiEngine::kLevelized && !config_.use_cone_restriction) {
    // The naive sweep re-evaluates every non-source node for every fault.
    std::uint32_t count = 0;
    for (NodeId id = 0; id < num_nodes_; ++id)
      if (!is_source_kind(nl_->kind(id))) ++count;
    return count;
  }
  std::uint32_t count = 0;
  for (const NodeId id : netlist::fanout_cone(*nl_, {&site, 1}))
    if (!is_source_kind(nl_->kind(id))) ++count;
  return count;
}

CampaignResult FaultCampaign::run(const std::vector<Fault>& faults) {
  if (!golden_ready_) run_golden();
  CampaignResult out = config_.engine == FiEngine::kFrontier
                           ? run_frontier(faults)
                           : run_levelized(faults);
  out.golden_seconds = golden_seconds_;
  return out;
}

CampaignResult FaultCampaign::run_all() {
  return run(full_fault_list(*nl_));
}

FaultCampaign::TransientResult FaultCampaign::transient(
    NodeId node, int inject_cycle, FrontierScratch& s) const {
  if (!golden_ready_)
    throw std::runtime_error("simulate_transient: golden trace not recorded");
  if (inject_cycle < 0 || inject_cycle >= config_.cycles)
    throw std::runtime_error("simulate_transient: cycle out of range");
  const FaultResult r =
      inject({node, inject_cycle, inject_cycle, ~0ULL, ~0ULL}, s);
  return {node, inject_cycle, r.detected_lanes, r.mismatch_cycles};
}

FaultCampaign::TransientResult FaultCampaign::simulate_transient(
    NodeId node, int inject_cycle) const {
  FrontierScratch scratch(num_nodes_, lev_.max_level);
  return transient(node, inject_cycle, scratch);
}

std::vector<double> FaultCampaign::transient_criticality(
    const std::vector<NodeId>& nodes,
    const std::vector<int>& inject_cycles) const {
  if (inject_cycles.empty())
    throw std::runtime_error("transient_criticality: no injection cycles");
  FrontierScratch scratch(num_nodes_, lev_.max_level);
  std::vector<double> out;
  out.reserve(nodes.size());
  for (const NodeId node : nodes) {
    double affected = 0.0;
    for (const int cycle : inject_cycles)
      affected += std::popcount(transient(node, cycle, scratch).affected_lanes);
    out.push_back(affected /
                  (64.0 * static_cast<double>(inject_cycles.size())));
  }
  return out;
}

}  // namespace fcrit::fault
