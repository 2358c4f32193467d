#include "src/netlist/bench_format.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/util/text.hpp"

namespace fcrit::netlist {

namespace {

struct BenchLine {
  std::string output;
  std::string function;  // upper-case
  std::vector<std::string> inputs;
  int line_number = 0;
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("bench parse error (line " + std::to_string(line) +
                           "): " + msg);
}

/// "NAME(arg, arg)" -> {NAME, args}; returns false if not of that shape.
bool parse_call(std::string_view text, std::string& name,
                std::vector<std::string>& args) {
  const auto open = text.find('(');
  const auto close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open)
    return false;
  name = util::to_lower(util::trim(text.substr(0, open)));
  for (char& c : name) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  args.clear();
  for (const std::string& piece :
       util::split(text.substr(open + 1, close - open - 1), ',')) {
    const auto arg = util::trim(piece);
    if (!arg.empty()) args.emplace_back(arg);
  }
  return true;
}

}  // namespace

Netlist parse_bench(std::string_view text, std::string module_name) {
  std::vector<std::string> input_ports;
  std::vector<std::pair<std::string, int>> output_ports;  // name, line
  std::vector<BenchLine> gates;

  int line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const auto end = text.find('\n');
    std::string_view line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = util::trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    std::string name;
    std::vector<std::string> args;
    if (eq == std::string_view::npos) {
      if (!parse_call(line, name, args) || args.size() != 1)
        fail(line_number, "expected INPUT(x) / OUTPUT(x) or assignment");
      if (name == "INPUT")
        input_ports.push_back(args[0]);
      else if (name == "OUTPUT")
        output_ports.emplace_back(args[0], line_number);
      else
        fail(line_number, "unknown directive '" + name + "'");
      continue;
    }

    BenchLine g;
    g.output = std::string(util::trim(line.substr(0, eq)));
    g.line_number = line_number;
    if (!parse_call(line.substr(eq + 1), g.function, g.inputs))
      fail(line_number, "expected GATE(inputs...)");
    if (g.inputs.empty()) fail(line_number, "gate with no inputs");
    gates.push_back(std::move(g));
  }

  Netlist nl(std::move(module_name));
  std::map<std::string, NodeId> driver;
  for (const std::string& port : input_ports)
    driver[port] = nl.add_input(port);

  // Create nodes with placeholder fanins; resolve in a second pass.
  struct Pending {
    NodeId node;
    std::size_t slot;
    std::string net;
    int line;
  };
  std::vector<Pending> pending;

  // Map a bench function + input count to a construction plan.
  auto build_tree = [&](CellKind wide2, CellKind wide3, CellKind wide4,
                        bool invert_root, const BenchLine& g) -> NodeId {
    // Build an AND/OR tree over placeholders; inputs resolved later.
    // Leaves are collected into progressively smaller levels.
    const std::size_t n_in = g.inputs.size();
    // Create leaf placeholder list: each leaf is "the i-th input net".
    // We build the tree of gates bottom-up, creating pending fanin patches
    // for the leaf positions.
    struct Term {
      bool is_net;         // true: external net by index
      std::size_t net_idx;
      NodeId node;         // valid when !is_net
    };
    std::vector<Term> level;
    for (std::size_t i = 0; i < n_in; ++i) level.push_back({true, i, 0});

    while (level.size() > 1 || invert_root) {
      if (level.size() == 1) {
        // Root inversion via INV.
        const Term t = level[0];
        const NodeId inv = nl.add_gate(CellKind::kInv, {kNoNode});
        if (t.is_net)
          pending.push_back({inv, 0, g.inputs[t.net_idx], g.line_number});
        else
          nl.set_fanin(inv, 0, t.node);
        return inv;
      }
      std::vector<Term> next;
      std::size_t i = 0;
      while (i < level.size()) {
        const std::size_t take = std::min<std::size_t>(4, level.size() - i);
        if (take == 1) {
          next.push_back(level[i]);
          ++i;
          continue;
        }
        const bool is_root_chunk = (level.size() - i == take) && next.empty();
        CellKind kind = take == 2 ? wide2 : take == 3 ? wide3 : wide4;
        // Apply the root inversion by choosing the inverting sibling gate
        // at the final chunk when the whole reduction is one gate.
        bool used_root_inversion = false;
        if (invert_root && is_root_chunk) {
          kind = take == 2
                     ? (wide2 == CellKind::kAnd2 ? CellKind::kNand2
                                                 : CellKind::kNor2)
                     : take == 3
                           ? (wide3 == CellKind::kAnd3 ? CellKind::kNand3
                                                       : CellKind::kNor3)
                           : (wide4 == CellKind::kAnd4 ? CellKind::kNand4
                                                       : CellKind::kNor4);
          used_root_inversion = true;
        }
        std::vector<NodeId> fanins(take, kNoNode);
        const NodeId gate = nl.add_gate(kind, fanins);
        for (std::size_t j = 0; j < take; ++j) {
          const Term& t = level[i + j];
          if (t.is_net)
            pending.push_back({gate, j, g.inputs[t.net_idx], g.line_number});
          else
            nl.set_fanin(gate, j, t.node);
        }
        next.push_back({false, 0, gate});
        if (used_root_inversion) {
          if (next.size() == 1 && i + take == level.size()) {
            return gate;  // inversion folded into the root gate
          }
        }
        i += take;
      }
      level = std::move(next);
    }
    return level[0].is_net ? kNoNode : level[0].node;
  };

  for (const BenchLine& g : gates) {
    NodeId id = kNoNode;
    const std::size_t n_in = g.inputs.size();
    auto unary = [&](CellKind kind) {
      if (n_in != 1) fail(g.line_number, g.function + " expects 1 input");
      id = nl.add_gate(kind, {kNoNode});
      pending.push_back({id, 0, g.inputs[0], g.line_number});
    };
    auto chain = [&](CellKind kind) {  // XOR/XNOR chains, 2+ inputs
      if (n_in < 2) fail(g.line_number, g.function + " expects >= 2 inputs");
      NodeId acc = nl.add_gate(CellKind::kXor2, {kNoNode, kNoNode});
      pending.push_back({acc, 0, g.inputs[0], g.line_number});
      pending.push_back({acc, 1, g.inputs[1], g.line_number});
      for (std::size_t i = 2; i < n_in; ++i) {
        const NodeId nxt = nl.add_gate(CellKind::kXor2, {acc, kNoNode});
        pending.push_back({nxt, 1, g.inputs[i], g.line_number});
        acc = nxt;
      }
      if (kind == CellKind::kXnor2) {
        // Replace the root with XNOR semantics via an inverter.
        acc = nl.add_gate(CellKind::kInv, {acc});
      }
      id = acc;
    };

    if (g.function == "NOT" || g.function == "INV") {
      unary(CellKind::kInv);
    } else if (g.function == "BUF" || g.function == "BUFF") {
      unary(CellKind::kBuf);
    } else if (g.function == "DFF") {
      unary(CellKind::kDff);
    } else if (g.function == "AND") {
      if (n_in == 1) unary(CellKind::kBuf);
      else id = build_tree(CellKind::kAnd2, CellKind::kAnd3, CellKind::kAnd4,
                           false, g);
    } else if (g.function == "NAND") {
      if (n_in == 1) unary(CellKind::kInv);
      else id = build_tree(CellKind::kAnd2, CellKind::kAnd3, CellKind::kAnd4,
                           true, g);
    } else if (g.function == "OR") {
      if (n_in == 1) unary(CellKind::kBuf);
      else id = build_tree(CellKind::kOr2, CellKind::kOr3, CellKind::kOr4,
                           false, g);
    } else if (g.function == "NOR") {
      if (n_in == 1) unary(CellKind::kInv);
      else id = build_tree(CellKind::kOr2, CellKind::kOr3, CellKind::kOr4,
                           true, g);
    } else if (g.function == "XOR") {
      if (n_in == 1) unary(CellKind::kBuf);
      else chain(CellKind::kXor2);
    } else if (g.function == "XNOR") {
      if (n_in == 1) unary(CellKind::kInv);
      else chain(CellKind::kXnor2);
    } else {
      fail(g.line_number, "unsupported gate '" + g.function + "'");
    }

    if (id == kNoNode) fail(g.line_number, "internal: no node built");
    if (driver.contains(g.output))
      fail(g.line_number, "net '" + g.output + "' has multiple drivers");
    driver[g.output] = id;
    // The line's root gate carries the bench net name; intermediate tree
    // gates keep their auto-generated names.
    nl.rename(id, g.output);
  }

  for (const Pending& p : pending) {
    const auto it = driver.find(p.net);
    if (it == driver.end())
      fail(p.line, "net '" + p.net + "' has no driver");
    nl.set_fanin(p.node, p.slot, it->second);
  }
  for (const auto& [port, port_line] : output_ports) {
    const auto it = driver.find(port);
    if (it == driver.end())
      fail(port_line, "output '" + port + "' has no driver");
    nl.add_output(port, it->second);
  }
  nl.validate();
  return nl;
}

namespace {

std::string bench_net(const Netlist& nl, NodeId id) {
  if (nl.kind(id) == CellKind::kInput) return nl.node(id).name;
  std::string net = "n";
  net += std::to_string(id);
  return net;
}

}  // namespace

void write_bench(const Netlist& nl, std::ostream& os) {
  os << "# fcrit netlist '" << nl.name() << "' in ISCAS bench format\n";
  for (const NodeId in : nl.inputs())
    os << "INPUT(" << nl.node(in).name << ")\n";
  for (const auto& port : nl.outputs()) os << "OUTPUT(" << port.name << ")\n";
  os << "\n";

  auto in_name = [&](NodeId id, int slot) {
    return bench_net(nl, nl.node(id).fanin[static_cast<std::size_t>(slot)]);
  };

  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const Node& node = nl.node(id);
    const std::string out = bench_net(nl, id);
    switch (node.kind) {
      case CellKind::kInput:
        break;
      case CellKind::kConst0:
        // Bench has no constants: 0 = AND(x, NOT(x)) over the first input.
        if (nl.inputs().empty())
          throw std::runtime_error("write_bench: constants need an input");
        os << out << "_i = NOT(" << nl.node(nl.inputs()[0]).name << ")\n";
        os << out << " = AND(" << nl.node(nl.inputs()[0]).name << ", " << out
           << "_i)\n";
        break;
      case CellKind::kConst1:
        if (nl.inputs().empty())
          throw std::runtime_error("write_bench: constants need an input");
        os << out << "_i = NOT(" << nl.node(nl.inputs()[0]).name << ")\n";
        os << out << " = OR(" << nl.node(nl.inputs()[0]).name << ", " << out
           << "_i)\n";
        break;
      case CellKind::kBuf:
        os << out << " = BUFF(" << in_name(id, 0) << ")\n";
        break;
      case CellKind::kInv:
        os << out << " = NOT(" << in_name(id, 0) << ")\n";
        break;
      case CellKind::kDff:
        os << out << " = DFF(" << in_name(id, 0) << ")\n";
        break;
      case CellKind::kXnor2:
        os << out << " = XNOR(" << in_name(id, 0) << ", " << in_name(id, 1)
           << ")\n";
        break;
      case CellKind::kXor2:
        os << out << " = XOR(" << in_name(id, 0) << ", " << in_name(id, 1)
           << ")\n";
        break;
      case CellKind::kMux2:
        // y = (a & !s) | (b & s)
        os << out << "_sn = NOT(" << in_name(id, 2) << ")\n";
        os << out << "_a = AND(" << in_name(id, 0) << ", " << out << "_sn)\n";
        os << out << "_b = AND(" << in_name(id, 1) << ", " << in_name(id, 2)
           << ")\n";
        os << out << " = OR(" << out << "_a, " << out << "_b)\n";
        break;
      case CellKind::kAoi21:
        os << out << "_p = AND(" << in_name(id, 0) << ", " << in_name(id, 1)
           << ")\n";
        os << out << " = NOR(" << out << "_p, " << in_name(id, 2) << ")\n";
        break;
      case CellKind::kAoi22:
        os << out << "_p = AND(" << in_name(id, 0) << ", " << in_name(id, 1)
           << ")\n";
        os << out << "_q = AND(" << in_name(id, 2) << ", " << in_name(id, 3)
           << ")\n";
        os << out << " = NOR(" << out << "_p, " << out << "_q)\n";
        break;
      case CellKind::kOai21:
        os << out << "_p = OR(" << in_name(id, 0) << ", " << in_name(id, 1)
           << ")\n";
        os << out << " = NAND(" << out << "_p, " << in_name(id, 2) << ")\n";
        break;
      case CellKind::kOai22:
        os << out << "_p = OR(" << in_name(id, 0) << ", " << in_name(id, 1)
           << ")\n";
        os << out << "_q = OR(" << in_name(id, 2) << ", " << in_name(id, 3)
           << ")\n";
        os << out << " = NAND(" << out << "_p, " << out << "_q)\n";
        break;
      default: {
        // Plain AND/NAND/OR/NOR of 2-4 inputs.
        const char* fn = nullptr;
        switch (node.kind) {
          case CellKind::kAnd2:
          case CellKind::kAnd3:
          case CellKind::kAnd4:
            fn = "AND";
            break;
          case CellKind::kNand2:
          case CellKind::kNand3:
          case CellKind::kNand4:
            fn = "NAND";
            break;
          case CellKind::kOr2:
          case CellKind::kOr3:
          case CellKind::kOr4:
            fn = "OR";
            break;
          case CellKind::kNor2:
          case CellKind::kNor3:
          case CellKind::kNor4:
            fn = "NOR";
            break;
          default:
            throw std::runtime_error("write_bench: unhandled cell kind");
        }
        os << out << " = " << fn << "(";
        for (std::size_t i = 0; i < node.fanin_count; ++i) {
          if (i) os << ", ";
          os << bench_net(nl, node.fanin[i]);
        }
        os << ")\n";
        break;
      }
    }
  }

  // Output aliases: bench nets must carry the OUTPUT() names.
  for (const auto& port : nl.outputs()) {
    if (bench_net(nl, port.driver) != port.name)
      os << port.name << " = BUFF(" << bench_net(nl, port.driver) << ")\n";
  }
}

std::string to_bench(const Netlist& nl) {
  std::ostringstream os;
  write_bench(nl, os);
  return os.str();
}

}  // namespace fcrit::netlist
