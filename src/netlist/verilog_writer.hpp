// Structural Verilog emission for fcrit netlists.
//
// The emitted subset uses one instance per gate with named pin connections
// (.Y(...), .A(...), ...), a single implicit clock `clk` on every FD1, and
// wire-per-node naming. verilog_parser.hpp reads this subset back, so
// write→parse round-trips are exact (tested in tests/verilog_test).
//
// One emitter writes every Verilog text: it takes an emission order and a
// sink. write_verilog/to_verilog pass node-id order; the bundle content
// hash passes parse_order() into a hashing sink, which yields the bytes an
// export → parse → export round trip would produce, without the round trip.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace fcrit::netlist {

/// Pin names of a cell kind in emission order: inputs then output.
/// Combinational cells use A/B/C/D + Y; MX2 uses A/B/S + Y; FD1 uses D + Q.
std::vector<std::string> pin_names(CellKind kind);

/// Name of input pin `slot` (< arity) of a cell kind, as in pin_names.
std::string_view input_pin(CellKind kind, std::size_t slot);

/// Name of the output pin of a cell kind: Q for FD1, Y otherwise.
std::string_view output_pin(CellKind kind);

/// Receives the emitter's text, piece by piece and in order.
class VerilogSink {
 public:
  virtual void write(std::string_view text) = 0;

 protected:
  ~VerilogSink() = default;
};

/// The order parse_verilog numbers nodes in: primary inputs in port order,
/// then constants, then gates and flip-flops, each group in id order.
std::vector<NodeId> parse_order(const Netlist& nl);

/// Emit the module with its wires, constants and instances in `order`, a
/// permutation of the node ids. The wire of the node at position k of
/// `order` is named n_k; primary inputs keep their port names.
void emit_verilog(const Netlist& nl, std::span<const NodeId> order,
                  VerilogSink& sink);

/// emit_verilog in node-id order.
void write_verilog(const Netlist& nl, std::ostream& os);

std::string to_verilog(const Netlist& nl);

}  // namespace fcrit::netlist
