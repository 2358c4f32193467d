// ISCAS-style ".bench" netlist format.
//
//   # comment
//   INPUT(a)
//   OUTPUT(y)
//   n1 = NAND(a, b)
//   n2 = DFF(n1)
//   y  = NOT(n2)
//
// Reader: supports AND/NAND/OR/NOR with 2+ inputs (wider than 4 maps onto
// balanced trees of library gates), XOR/XNOR chains, NOT/BUFF, DFF, and
// forward references. Writer: emits every fcrit cell; complex cells
// (AOI/OAI/MUX) are decomposed into bench primitives with synthetic
// intermediate names, so write->parse round-trips are *functionally*
// equivalent rather than node-identical (verified by simulation in tests).
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "src/netlist/netlist.hpp"

namespace fcrit::netlist {

/// Parses the lines of `text`, and nothing past its end; throws
/// std::runtime_error naming the offending line. Files arrive through
/// read_netlist_file, which bounds them.
Netlist parse_bench(std::string_view text,
                    std::string module_name = "bench_top");

void write_bench(const Netlist& nl, std::ostream& os);
std::string to_bench(const Netlist& nl);

}  // namespace fcrit::netlist
