// Independent references for the score front end, kept as the code they
// replaced: the Verilog reader as a tokenizer with one std::string per
// token and a std::map of nets, the content hash by an export -> parse ->
// export round trip through that reader, and the graph build by a
// std::map edge table and two COO sorts. The parse oracle
// (diff_verilog_parse), the serve oracle (diff_serve_vs_pipeline) and the
// front-end tests hold the production paths byte-identical to them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/graphir/graph.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/verilog_parser.hpp"

namespace fcrit::check {

/// The reference Verilog reader: the same grammar, issues, repairs and
/// exception texts as netlist::parse_verilog_collect, without its size
/// limit.
netlist::VerilogParse reference_parse_verilog_collect(std::string_view text);

/// FNV-1a of to_verilog(reference parse of to_verilog(nl)). Throws the
/// strict parse_verilog message when the export does not parse back
/// cleanly.
std::uint64_t reference_content_hash(const netlist::Netlist& nl);

/// build_graph through a std::map of node pairs and
/// ml::SparseMatrix::from_coo.
graphir::CircuitGraph reference_build_graph(const netlist::Netlist& nl);

/// "" when the two graphs are byte-identical (node count, edge order,
/// entry_edge, CSR offsets, columns and value bits), else the first
/// difference.
std::string diff_graphs(const graphir::CircuitGraph& got,
                        const graphir::CircuitGraph& ref);

}  // namespace fcrit::check
