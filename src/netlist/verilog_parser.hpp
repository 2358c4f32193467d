// Parser for the structural Verilog subset emitted by verilog_writer.
//
// Supported grammar:
//   module NAME ( (input|output) PORT {, (input|output) PORT} );
//   wire NAME ;
//   assign NAME = 1'b0 | 1'b1 | NAME ;
//   CELL INST ( .PIN(NET) {, .PIN(NET)} ) ;
//   endmodule
// Comments (// and /* */) are stripped. The clock net `clk` is implicit and
// its .CP connections are ignored. Forward references between instances are
// legal (sequential loops through FD1 cells are expected).
//
// Two entry points: parse_verilog() is strict — any semantic defect throws
// one aggregated error listing *every* problem, each with its source line.
// parse_verilog_collect() is the lenient front end the lint layer uses: it
// records semantic defects as ParseIssues (first driver wins, undriven
// pins are tied to constant 0) and still returns a well-formed netlist so
// the structural rules can analyze the rest of the design. Syntax errors
// (a file that is not the grammar above at all) always throw.
//
// The reader lexes one in-memory buffer into views, with no per-token
// copies, and resolves nets through hash tables sized from the module.
// Text longer than kMaxVerilogBytes is refused with VerilogLimitError
// before anything is sized from it (docs/FORMATS.md).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace fcrit::netlist {

/// The Verilog reader's one size limit, in bytes of text: 64 MiB, about
/// 12x the largest netlist the score benchmark sends (5.5 MB).
inline constexpr std::uint64_t kMaxVerilogBytes = std::uint64_t{64} << 20;

/// Verilog text longer than kMaxVerilogBytes. The message names the limit
/// and the offending length (for a file that is not a regular one, the
/// bytes read when the limit was passed).
class VerilogLimitError : public std::runtime_error {
 public:
  explicit VerilogLimitError(std::uint64_t bytes);
};

/// One semantic defect found while parsing, with the offending source line.
/// `rule` matches the lint rule ids: "multi-driven", "undriven-fanin",
/// "unknown-cell", "bad-pin".
struct ParseIssue {
  std::string rule;
  int line = 0;
  std::string message;
};

struct VerilogParse {
  Netlist netlist;
  std::vector<ParseIssue> issues;

  bool ok() const { return issues.empty(); }
};

/// Lenient parse: syntax errors throw std::runtime_error (with a line
/// number); semantic defects are collected into `issues` and repaired so
/// the returned netlist always passes Netlist::validate().
VerilogParse parse_verilog_collect(std::string_view text);

/// Strict parse; throws std::runtime_error aggregating every semantic
/// error (each carrying "line N") instead of stopping at the first.
Netlist parse_verilog(std::string_view text);

/// A .v or .bench file's bytes, read once. A regular file's size is
/// checked against kMaxVerilogBytes before any byte is read (anything else
/// is read up to the limit). Throws std::runtime_error("cannot open PATH")
/// or VerilogLimitError.
std::string read_netlist_file(const std::string& path);

}  // namespace fcrit::netlist
