// Independent references for the score front end, kept as the code they
// replaced: the content hash by an export -> parse -> export round trip,
// and the graph build by a std::map edge table and two COO sorts. The
// serve oracle (diff_serve_vs_pipeline) and the front-end tests hold the
// production paths byte-identical to them.
#pragma once

#include <cstdint>
#include <string>

#include "src/graphir/graph.hpp"
#include "src/netlist/netlist.hpp"

namespace fcrit::check {

/// FNV-1a of to_verilog(parse_verilog(to_verilog(nl))). Throws whatever
/// parse_verilog throws when the export does not parse back.
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
