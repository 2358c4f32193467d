// File-based flow: write a netlist to structural Verilog, read it back,
// and analyze the parsed copy — the path a user takes to bring their own
// gate-level netlists into the framework.
//
//   ./custom_design_flow [out.v]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/netlist/stats.hpp"
#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/rtl/builder.hpp"
#include "src/rtl/fsm.hpp"
#include "src/util/text.hpp"

namespace {

/// A small peripheral: UART-style transmitter (start bit, 8 data bits via
/// a shift register, stop bit, busy flag).
fcrit::designs::Design build_uart_tx() {
  using namespace fcrit;
  designs::Design d;
  d.name = "uart_tx";
  d.netlist.set_name("uart_tx");
  rtl::Builder b(d.netlist, 0xabcd);

  const auto rst = b.input("rst");
  const auto send = b.input("send");
  const auto data = b.input_bus("data", 8);

  enum { kIdle = 0, kStart, kData, kStop, kStates };
  rtl::Fsm fsm(b, kStates, "tx_fsm");

  // Bit counter for the data phase.
  const auto cnt = b.reg_placeholder_bus(3);
  const auto cnt_done = b.eq_const(cnt, 7);
  const auto in_data = fsm.in_state(kData);
  {
    const auto inc = b.increment(cnt);
    rtl::Bus nxt = b.mux_bus(cnt, inc, in_data);
    const auto clear = b.or2(rst, b.inv(in_data));
    rtl::Bus gated;
    for (const auto bit : nxt) gated.push_back(b.and2(bit, b.inv(clear)));
    b.connect_reg_bus(cnt, gated);
  }

  // Shift register loaded on send, shifted during the data phase.
  const auto accept = b.and2(fsm.in_state(kIdle), send);
  const auto shreg = b.reg_placeholder_bus(8);
  {
    rtl::Bus shifted;
    for (int i = 0; i < 7; ++i) shifted.push_back(shreg[static_cast<std::size_t>(i) + 1]);
    shifted.push_back(b.const0());
    rtl::Bus nxt = b.mux_bus(shreg, shifted, in_data);
    nxt = b.mux_bus(nxt, data, accept);
    b.connect_reg_bus(shreg, nxt);
  }

  fsm.add_transition(kIdle, send, kStart);
  fsm.set_default(kStart, kData);
  fsm.add_transition(kData, cnt_done, kStop);
  fsm.set_default(kStop, kIdle);
  fsm.build(rst);

  // TX line: idle/stop high, start low, data bit during the data phase.
  const auto tx = b.or_n(
      {b.and2(fsm.in_state(kIdle), b.const1()),
       b.and2(in_data, shreg[0]), fsm.in_state(kStop)});
  b.output("tx", tx);
  b.output("busy", b.inv(fsm.in_state(kIdle)));

  d.stimulus.profiles["rst"] = {.p1 = 0.01, .hold_cycles = 2,
                                .hold_value = true};
  d.stimulus.profiles["send"] = {.p1 = 0.25, .hold_cycles = 0,
                                 .hold_value = false};
  d.stimulus.profiles["data"] = {.p1 = 0.5, .hold_cycles = 0,
                                 .hold_value = false};
  d.netlist.validate();
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fcrit;
  const std::string path = argc > 1 ? argv[1] : "uart_tx.v";

  // 1. Build and export.
  designs::Design original = build_uart_tx();
  {
    std::ofstream out(path);
    netlist::write_verilog(original.netlist, out);
  }
  std::printf("wrote %s\n", path.c_str());

  // 2. Re-import (the flow an external netlist would enter through).
  designs::Design imported;
  imported.name = "uart_tx";
  imported.netlist = netlist::parse_verilog(netlist::read_netlist_file(path));
  imported.stimulus = original.stimulus;
  std::printf("parsed back: %s\n",
              netlist::compute_stats(imported.netlist).to_string().c_str());

  // 3. Analyze the parsed copy.
  core::PipelineConfig cfg;
  cfg.train_baselines = false;
  core::FaultCriticalityAnalyzer analyzer(cfg);
  const auto r = analyzer.analyze(std::move(imported));
  std::printf("%s\n", core::summarize(r).c_str());

  // 4. Show the most critical nodes of the transmitter.
  core::TextTable table({"Node", "Cell", "FI score", "Predicted score"});
  int shown = 0;
  for (const auto node : r.dataset.nodes) {
    if (r.labels[node] != 1 || shown >= 8) continue;
    ++shown;
    table.add_row(
        {r.design.netlist.node(node).name,
         std::string(netlist::spec(r.design.netlist.kind(node)).name),
         util::format_double(r.scores[node], 2),
         util::format_double(r.regression->predicted_score[node], 2)});
  }
  std::printf("sample of critical nodes:\n%s", table.to_string().c_str());
  return 0;
}
