#include "src/check/harness.hpp"

#include <ostream>
#include <sstream>

#include "src/check/differential.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/util/rng.hpp"

namespace fcrit::check {

namespace {

fault::CampaignConfig fault_config(int cycles, std::uint64_t seed) {
  fault::CampaignConfig fc;
  fc.cycles = cycles;
  fc.seed = seed;
  fc.num_threads = 1;
  return fc;
}

/// Re-run exactly one oracle on a candidate circuit; returns the divergence
/// message ("" when the candidate passes). Used both for the initial check
/// and to decide whether a shrink step still reproduces the failure.
std::string run_oracle(const std::string& oracle,
                       const designs::RandomCircuitConfig& circuit,
                       int cycles, std::uint64_t seed,
                       const CheckConfig& config,
                       ParseSplit* split = nullptr) {
  const designs::Design design = designs::build_random_circuit(circuit);
  if (oracle == "packed-vs-scalar")
    return diff_packed_vs_scalar(design, cycles, seed, config.scalar_bug);
  if (oracle == "fault")
    return diff_fault_oracles(design, fault_config(cycles, seed),
                              config.max_faults, config.fault_bug);
  if (oracle == "campaign")
    return diff_campaign_equivalence(design, fault_config(cycles, seed),
                                     config.max_faults, config.campaign_bug);
  if (oracle == "dataflow") return diff_dataflow_facts(design);
  if (oracle == "parse")
    return diff_verilog_parse(design, seed, config.parse_bug, split);
  return diff_serve_vs_pipeline(design, config.scratch_dir, seed);
}

/// Greedy shrink: try one reduction at a time (halve gates, drop flops,
/// halve inputs/outputs/cycles) and keep it whenever the same oracle still
/// diverges with the same trial seed. Bounded, deterministic, and cheap —
/// every accepted step at least halves one dimension.
void shrink_divergence(Divergence& d, const CheckConfig& config) {
  bool progress = true;
  int budget = 48;
  while (progress && budget > 0) {
    progress = false;
    for (int candidate = 0; candidate < 5 && budget > 0; ++candidate) {
      designs::RandomCircuitConfig c = d.circuit;
      int cycles = d.cycles;
      switch (candidate) {
        case 0:
          if (c.num_gates <= 1) continue;
          c.num_gates = c.num_gates / 2;
          break;
        case 1:
          if (c.num_flops == 0) continue;
          c.num_flops = c.num_flops > 1 ? c.num_flops / 2 : 0;
          break;
        case 2:
          if (c.num_inputs <= 1) continue;
          c.num_inputs = c.num_inputs / 2;
          break;
        case 3:
          if (c.num_outputs <= 1) continue;
          c.num_outputs = c.num_outputs / 2;
          break;
        case 4:
          if (cycles <= 2) continue;
          cycles = cycles / 2;
          break;
      }
      --budget;
      std::string msg;
      try {
        msg = run_oracle(d.oracle, c, cycles, d.seed, config);
      } catch (const std::exception& e) {
        // A crash on the reduced circuit still reproduces a defect.
        msg = std::string("exception: ") + e.what();
      }
      if (!msg.empty()) {
        d.circuit = c;
        d.cycles = cycles;
        d.message = msg;
        ++d.shrink_steps;
        progress = true;
      }
    }
  }
}

std::string dump_verilog(const designs::RandomCircuitConfig& circuit) {
  const designs::Design design = designs::build_random_circuit(circuit);
  std::ostringstream os;
  netlist::write_verilog(design.netlist, os);
  return os.str();
}

/// Lint the shrunk repro circuit so the report distinguishes "oracle bug"
/// from "generator produced a structurally broken netlist".
std::string lint_circuit(const designs::RandomCircuitConfig& circuit) {
  try {
    const designs::Design design = designs::build_random_circuit(circuit);
    lint::LintReport report = lint::lint_netlist(design.netlist);
    report.target_name = design.name;
    return report.clean() ? std::string() : report.to_string();
  } catch (const std::exception& e) {
    return std::string("lint crashed: ") + e.what();
  }
}

}  // namespace

CheckReport run_checks(const CheckConfig& config, std::ostream* log) {
  CheckReport report;
  util::SplitMix64 mix(config.seed);

  for (int trial = 0; trial < config.trials; ++trial) {
    const std::uint64_t trial_seed = mix.next();
    designs::RandomCircuitConfig circuit;
    circuit.num_inputs = config.inputs;
    circuit.num_gates = config.gates;
    circuit.num_flops = config.flops;
    circuit.num_outputs = config.outputs;
    circuit.seed = trial_seed;

    Divergence d;
    d.trial = trial;
    d.seed = trial_seed;
    d.circuit = circuit;
    d.cycles = config.cycles;

    d.oracle = "packed-vs-scalar";
    d.message = run_oracle(d.oracle, circuit, config.cycles, trial_seed,
                           config);
    ++report.packed_checks;

    if (d.message.empty()) {
      d.oracle = "fault";
      d.message =
          run_oracle(d.oracle, circuit, config.cycles, trial_seed, config);
      ++report.fault_checks;
    }

    if (d.message.empty() && config.campaign_every > 0 &&
        trial % config.campaign_every == 0) {
      d.oracle = "campaign";
      d.message =
          run_oracle(d.oracle, circuit, config.cycles, trial_seed, config);
      ++report.campaign_checks;
    }

    if (d.message.empty()) {
      d.oracle = "dataflow";
      d.message =
          run_oracle(d.oracle, circuit, config.cycles, trial_seed, config);
      ++report.dataflow_checks;
    }

    if (d.message.empty()) {
      d.oracle = "parse";
      d.message = run_oracle(d.oracle, circuit, config.cycles, trial_seed,
                             config, &report.parse_split);
      ++report.parse_checks;
    }

    if (d.message.empty() && config.serve_every > 0 &&
        !config.scratch_dir.empty() && trial % config.serve_every == 0) {
      d.oracle = "serve";
      d.message =
          run_oracle(d.oracle, circuit, config.cycles, trial_seed, config);
      ++report.serve_checks;
    }

    ++report.trials_run;

    if (!d.message.empty()) {
      if (config.shrink) shrink_divergence(d, config);
      if (config.dump_netlist) d.netlist_verilog = dump_verilog(d.circuit);
      d.lint_report = lint_circuit(d.circuit);
      report.divergences.push_back(std::move(d));
      if (log) *log << format_divergence(report.divergences.back());
      return report;
    }

    if (log && (trial + 1) % 10 == 0)
      *log << "check: " << (trial + 1) << "/" << config.trials
           << " trials clean\n";
  }
  return report;
}

std::string format_divergence(const Divergence& d) {
  std::ostringstream os;
  os << "DIVERGENCE (trial " << d.trial << ", oracle " << d.oracle << ")\n"
     << "  " << d.message << "\n"
     << "  reproduce: seed=" << d.seed << " inputs=" << d.circuit.num_inputs
     << " gates=" << d.circuit.num_gates << " flops=" << d.circuit.num_flops
     << " outputs=" << d.circuit.num_outputs << " cycles=" << d.cycles
     << " (after " << d.shrink_steps << " shrink steps)\n";
  if (!d.lint_report.empty())
    os << "  lint on shrunk circuit:\n" << d.lint_report;
  if (!d.netlist_verilog.empty())
    os << "  shrunk netlist:\n" << d.netlist_verilog;
  return os.str();
}

}  // namespace fcrit::check
