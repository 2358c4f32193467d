#include "src/check/front_end_ref.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/netlist/verilog_parser.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/serve/bundle.hpp"
#include "src/util/text.hpp"

namespace fcrit::check {

// The tokenizing Verilog reader fcrit used before the view-based one, kept
// as it was: the whole text copied through an ostringstream, one
// std::string per token, nets in a std::map, aliases found by a linear scan
// per hop, pin names built per instance and cell names upper-cased copies.
namespace verilog_ref {

using namespace netlist;

namespace {

/// kind_from_name as it was: an upper-cased copy compared with each
/// library name.
CellKind upper_kind_from_name(std::string_view name) {
  const std::string upper = [&] {
    std::string s(name);
    for (char& c : s)
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
  }();
  for (int i = 0; i < kNumCellKinds; ++i) {
    if (kCellSpecs[static_cast<std::size_t>(i)].name == upper)
      return static_cast<CellKind>(i);
  }
  return CellKind::kCount;
}

struct Token {
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::istream& is) {
    std::ostringstream buf;
    buf << is.rdbuf();
    src_ = buf.str();
    tokenize();
  }

  const Token& peek() const {
    if (pos_ >= tokens_.size()) return eof_;
    return tokens_[pos_];
  }

  Token next() {
    Token t = peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }

  bool done() const { return pos_ >= tokens_.size(); }

 private:
  void tokenize() {
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src_.size();
    while (i < n) {
      const char c = src_[i];
      if (c == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && src_[i + 1] == '/') {
        while (i < n && src_[i] != '\n') ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && src_[i + 1] == '*') {
        i += 2;
        while (i + 1 < n && !(src_[i] == '*' && src_[i + 1] == '/')) {
          if (src_[i] == '\n') ++line;
          ++i;
        }
        i += 2;
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '\'' || c == '$') {
        std::size_t start = i;
        while (i < n &&
               (std::isalnum(static_cast<unsigned char>(src_[i])) ||
                src_[i] == '_' || src_[i] == '\'' || src_[i] == '$'))
          ++i;
        tokens_.push_back({src_.substr(start, i - start), line});
        continue;
      }
      tokens_.push_back({std::string(1, c), line});
      ++i;
    }
  }

  std::string src_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  Token eof_{"<eof>", -1};
};

[[noreturn]] void fail(const Token& at, const std::string& msg) {
  throw std::runtime_error("verilog parse error (line " +
                           std::to_string(at.line) + "): " + msg +
                           ", got '" + at.text + "'");
}

void expect(Lexer& lex, std::string_view text) {
  const Token t = lex.next();
  if (t.text != text) fail(t, "expected '" + std::string(text) + "'");
}

struct Instance {
  std::string cell;
  std::string name;
  // pin -> net connections in source order.
  std::vector<std::pair<std::string, std::string>> pins;
  int line = 0;
};

struct OutputDecl {
  std::string name;
  int line = 0;
};

struct Alias {
  std::string lhs;
  std::string rhs;
  int line = 0;
};

struct ConstAssign {
  std::string lhs;
  bool value = false;
  int line = 0;
};

struct ParsedModule {
  std::string name;
  std::vector<std::string> input_ports;  // excl. clk
  std::vector<OutputDecl> output_ports;
  std::vector<Alias> aliases;            // lhs = rhs net
  std::vector<ConstAssign> const_assigns;
  std::vector<Instance> instances;
};

ParsedModule parse_structure(Lexer& lex) {
  ParsedModule m;
  expect(lex, "module");
  Token name = lex.next();
  if (!util::is_identifier(name.text)) fail(name, "expected module name");
  m.name = name.text;
  expect(lex, "(");
  while (true) {
    Token dir = lex.next();
    if (dir.text != "input" && dir.text != "output")
      fail(dir, "expected port direction");
    Token port = lex.next();
    if (!util::is_identifier(port.text)) fail(port, "expected port name");
    if (dir.text == "input") {
      if (port.text != "clk") m.input_ports.push_back(port.text);
    } else {
      m.output_ports.push_back({port.text, port.line});
    }
    Token sep = lex.next();
    if (sep.text == ")") break;
    if (sep.text != ",") fail(sep, "expected ',' or ')' in port list");
  }
  expect(lex, ";");

  while (true) {
    Token t = lex.next();
    if (t.text == "endmodule") break;
    if (t.line < 0) fail(t, "unexpected end of file (missing endmodule?)");
    if (t.text == "wire") {
      Token w = lex.next();
      if (!util::is_identifier(w.text)) fail(w, "expected wire name");
      expect(lex, ";");
      continue;
    }
    if (t.text == "assign") {
      Token lhs = lex.next();
      expect(lex, "=");
      Token rhs = lex.next();
      expect(lex, ";");
      if (rhs.text == "1'b0")
        m.const_assigns.push_back({lhs.text, false, lhs.line});
      else if (rhs.text == "1'b1")
        m.const_assigns.push_back({lhs.text, true, lhs.line});
      else if (util::is_identifier(rhs.text))
        m.aliases.push_back({lhs.text, rhs.text, lhs.line});
      else
        fail(rhs, "expected net name or 1'b0/1'b1");
      continue;
    }
    // Cell instance: CELL INST ( .PIN(NET), ... ) ;
    Instance inst;
    inst.cell = t.text;
    inst.line = t.line;
    Token iname = lex.next();
    if (!util::is_identifier(iname.text)) fail(iname, "expected instance name");
    inst.name = iname.text;
    expect(lex, "(");
    while (true) {
      expect(lex, ".");
      Token pin = lex.next();
      expect(lex, "(");
      Token net = lex.next();
      expect(lex, ")");
      inst.pins.emplace_back(pin.text, net.text);
      Token sep = lex.next();
      if (sep.text == ")") break;
      if (sep.text != ",") fail(sep, "expected ',' or ')' in pin list");
    }
    expect(lex, ";");
    m.instances.push_back(std::move(inst));
  }
  return m;
}

VerilogParse parse_collect(std::istream& is) {
  Lexer lex(is);
  const ParsedModule m = parse_structure(lex);

  VerilogParse out{Netlist(m.name), {}};
  Netlist& nl = out.netlist;
  auto issue = [&](const char* rule, int line, std::string message) {
    out.issues.push_back({rule, line, std::move(message)});
  };

  // Pass 1: create nodes and record each net's driver.
  std::map<std::string, NodeId> driver;
  for (const std::string& port : m.input_ports)
    driver[port] = nl.add_input(port);
  for (const ConstAssign& ca : m.const_assigns) {
    if (driver.contains(ca.lhs)) {
      issue("multi-driven", ca.line,
            "net '" + ca.lhs + "' has multiple drivers");
      continue;
    }
    driver[ca.lhs] = nl.add_const(ca.value);
  }

  struct PendingFanin {
    NodeId node;
    std::size_t slot;
    std::string net;
    int line;
  };
  std::vector<PendingFanin> pending;

  for (const Instance& inst : m.instances) {
    const CellKind kind = upper_kind_from_name(inst.cell);
    if (kind == CellKind::kCount || kind == CellKind::kInput) {
      issue("unknown-cell", inst.line, "unknown cell '" + inst.cell + "'");
      continue;
    }
    const auto pins = pin_names(kind);
    const std::string& out_pin = pins.back();
    const auto arity = static_cast<std::size_t>(spec(kind).arity);
    std::vector<NodeId> fanins(arity, kNoNode);
    std::vector<std::pair<std::size_t, std::string>> slot_nets;
    std::vector<char> slot_filled(arity, 0);
    std::string out_net;
    for (const auto& [pin, net] : inst.pins) {
      if (pin == "CP") continue;  // implicit clock
      if (pin == out_pin) {
        out_net = net;
        continue;
      }
      bool matched = false;
      for (std::size_t slot = 0; slot + 1 < pins.size(); ++slot) {
        if (pins[slot] != pin) continue;
        if (!slot_filled[slot]) {
          slot_nets.emplace_back(slot, net);
          slot_filled[slot] = 1;
        }
        matched = true;
        break;
      }
      if (!matched)
        issue("bad-pin", inst.line,
              "cell '" + inst.cell + "' has no pin '" + pin + "'");
    }
    if (out_net.empty()) {
      issue("bad-pin", inst.line, "instance '" + inst.name +
                                      "' lacks output pin ." + out_pin);
      continue;
    }
    const NodeId id =
        nl.add_gate(kind, std::span<const NodeId>(fanins), inst.name);
    for (auto& [slot, net] : slot_nets)
      pending.push_back({id, slot, std::move(net), inst.line});
    for (std::size_t slot = 0; slot < arity; ++slot) {
      if (slot_filled[slot]) continue;
      issue("undriven-fanin", inst.line, "pin ." + pins[slot] +
                                             " of instance '" + inst.name +
                                             "' is unconnected");
      nl.set_fanin(id, slot, nl.add_const(false));
    }
    if (driver.contains(out_net)) {
      issue("multi-driven", inst.line,
            "net '" + out_net + "' has multiple drivers (instance '" +
                inst.name + "')");
      continue;  // first driver wins; this gate becomes dead logic
    }
    driver[out_net] = id;
  }

  // Resolve aliases transitively (assign a = b; assign y = a;). A net with
  // no driver at all is reported and tied to constant 0 so the returned
  // netlist stays well-formed for the structural lint pass.
  auto resolve = [&](const std::string& net, int line) -> NodeId {
    std::string cur = net;
    for (int hops = 0; hops < 1024; ++hops) {
      const auto it = driver.find(cur);
      if (it != driver.end()) return it->second;
      bool advanced = false;
      for (const Alias& alias : m.aliases) {
        if (alias.lhs == cur) {
          cur = alias.rhs;
          advanced = true;
          break;
        }
      }
      if (!advanced) break;
    }
    issue("undriven-fanin", line, "net '" + net + "' has no driver");
    return nl.add_const(false);
  };

  // Pass 2: patch fanins.
  for (const PendingFanin& p : pending)
    nl.set_fanin(p.node, p.slot, resolve(p.net, p.line));

  for (const OutputDecl& port : m.output_ports)
    nl.add_output(port.name, resolve(port.name, port.line));

  nl.validate();
  return out;
}

}  // namespace

}  // namespace verilog_ref

netlist::VerilogParse reference_parse_verilog_collect(std::string_view text) {
  std::istringstream is{std::string(text)};
  return verilog_ref::parse_collect(is);
}

std::uint64_t reference_content_hash(const netlist::Netlist& nl) {
  netlist::VerilogParse parse =
      reference_parse_verilog_collect(netlist::to_verilog(nl));
  if (!parse.ok()) {
    std::string msg = "verilog parse error: " +
                      std::to_string(parse.issues.size()) + " problem(s)";
    for (const netlist::ParseIssue& i : parse.issues)
      msg += "\n  line " + std::to_string(i.line) + ": " + i.message;
    throw std::runtime_error(msg);
  }
  return serve::fnv1a64(netlist::to_verilog(parse.netlist));
}

graphir::CircuitGraph reference_build_graph(const netlist::Netlist& nl) {
  graphir::CircuitGraph g;
  g.num_nodes = static_cast<int>(nl.num_nodes());

  std::map<std::pair<int, int>, int> edge_index;
  for (netlist::NodeId id = 0; id < nl.num_nodes(); ++id) {
    for (const netlist::NodeId f : nl.fanins(id)) {
      if (f == id) continue;
      const int a = static_cast<int>(f);
      const int b = static_cast<int>(id);
      const std::pair<int, int> e{std::min(a, b), std::max(a, b)};
      if (!edge_index.contains(e)) {
        edge_index.emplace(e, static_cast<int>(g.edges.size()));
        g.edges.push_back(e);
      }
    }
  }

  std::vector<double> degree(static_cast<std::size_t>(g.num_nodes), 1.0);
  for (const auto& [u, v] : g.edges) {
    degree[static_cast<std::size_t>(u)] += 1.0;
    degree[static_cast<std::size_t>(v)] += 1.0;
  }
  std::vector<double> dinv_sqrt(degree.size());
  for (std::size_t i = 0; i < degree.size(); ++i)
    dinv_sqrt[i] = 1.0 / std::sqrt(degree[i]);

  struct Tagged {
    ml::Coo coo;
    int edge;
  };
  std::vector<Tagged> tagged;
  tagged.reserve(2 * g.edges.size() + static_cast<std::size_t>(g.num_nodes));
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    const auto [u, v] = g.edges[e];
    const float w = static_cast<float>(dinv_sqrt[static_cast<std::size_t>(u)] *
                                       dinv_sqrt[static_cast<std::size_t>(v)]);
    tagged.push_back({{u, v, w}, static_cast<int>(e)});
    tagged.push_back({{v, u, w}, static_cast<int>(e)});
  }
  for (int i = 0; i < g.num_nodes; ++i) {
    const float w = static_cast<float>(dinv_sqrt[static_cast<std::size_t>(i)] *
                                       dinv_sqrt[static_cast<std::size_t>(i)]);
    tagged.push_back({{i, i, w}, -1});
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.coo.row, a.coo.col) < std::tie(b.coo.row, b.coo.col);
  });
  std::vector<ml::Coo> entries;
  entries.reserve(tagged.size());
  g.entry_edge.reserve(tagged.size());
  for (const Tagged& t : tagged) {
    entries.push_back(t.coo);
    g.entry_edge.push_back(t.edge);
  }
  g.normalized_adjacency =
      ml::SparseMatrix::from_coo(g.num_nodes, g.num_nodes, std::move(entries));
  if (g.normalized_adjacency.nnz() != g.entry_edge.size())
    throw std::runtime_error(
        "reference_build_graph: duplicate (row,col) entries broke edge "
        "tagging");
  return g;
}

namespace {

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

std::string diff_graphs(const graphir::CircuitGraph& got,
                        const graphir::CircuitGraph& ref) {
  const ml::SparseMatrix& a = got.normalized_adjacency;
  const ml::SparseMatrix& b = ref.normalized_adjacency;
  if (got.num_nodes != ref.num_nodes || a.rows() != b.rows() ||
      a.cols() != b.cols())
    return "graph sizes differ";
  if (got.edges != ref.edges) return "edge lists differ";
  if (got.entry_edge != ref.entry_edge) return "entry_edge differs";
  if (a.row_ptr() != b.row_ptr()) return "CSR row offsets differ";
  if (a.col_index() != b.col_index()) return "CSR columns differ";
  if (!same_bytes(a.values(), b.values())) return "Â value bits differ";
  return {};
}

}  // namespace fcrit::check
