#include "src/netlist/verilog_parser.hpp"

#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/netlist/verilog_writer.hpp"
#include "src/util/text.hpp"

namespace fcrit::netlist {

VerilogLimitError::VerilogLimitError(std::uint64_t bytes)
    : std::runtime_error("verilog text of " + std::to_string(bytes) +
                         " bytes exceeds the limit of " +
                         std::to_string(kMaxVerilogBytes) + " bytes") {}

namespace {

// Character classes of the C locale (nothing in fcrit calls setlocale):
// isspace is \t \n \v \f \r and space; a word is isalnum plus _ ' $.
enum : unsigned char { kOther, kSpace, kWord };

constexpr std::array<unsigned char, 256> kCharClass = [] {
  std::array<unsigned char, 256> t{};
  for (int c = '\t'; c <= '\r'; ++c) t[c] = kSpace;
  t[' '] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kWord;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kWord;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kWord;
  t['_'] = t['\''] = t['$'] = kWord;
  return t;
}();

unsigned char char_class(char c) {
  return kCharClass[static_cast<unsigned char>(c)];
}

/// A token is a view into the source text; line -1 marks end of input.
struct Token {
  std::string_view text;
  int line = 0;
};

/// Lexes on demand: a word ([A-Za-z0-9_'$]+) or any other single byte,
/// skipping whitespace and // and /* */ comments. Newlines inside a block
/// comment count; an unterminated block comment runs to end of input.
class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Token next() {
    const char* s = src_.data();
    const std::size_t n = src_.size();
    std::size_t i = pos_;
    while (i < n) {
      const char c = s[i];
      if (c == '\n') {
        ++line_;
        ++i;
        continue;
      }
      const unsigned char cls = char_class(c);
      if (cls == kSpace) {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && s[i + 1] == '/') {
        while (i < n && s[i] != '\n') ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && s[i + 1] == '*') {
        i += 2;
        while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
          if (s[i] == '\n') ++line_;
          ++i;
        }
        i += 2;
        continue;
      }
      const std::size_t start = i++;
      if (cls == kWord)
        while (i < n && char_class(s[i]) == kWord) ++i;
      pos_ = i;
      return {src_.substr(start, i - start), line_};
    }
    pos_ = n;
    return {"<eof>", -1};
  }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

[[noreturn]] void fail(const Token& at, const std::string& msg) {
  throw std::runtime_error("verilog parse error (line " +
                           std::to_string(at.line) + "): " + msg +
                           ", got '" + std::string(at.text) + "'");
}

void expect(Lexer& lex, std::string_view text) {
  const Token t = lex.next();
  if (t.text != text) fail(t, "expected '" + std::string(text) + "'");
}

struct Pin {
  std::string_view pin;
  std::string_view net;
};

struct Instance {
  std::string_view cell;
  std::string_view name;
  int line = 0;
  std::uint32_t first_pin = 0;  // into ParsedModule::pins, source order
  std::uint32_t num_pins = 0;
};

struct OutputDecl {
  std::string_view name;
  int line = 0;
};

struct Alias {
  std::string_view lhs;
  std::string_view rhs;
  int line = 0;
};

struct ConstAssign {
  std::string_view lhs;
  bool value = false;
  int line = 0;
};

/// The module as written, every name a view into the source text.
struct ParsedModule {
  std::string_view name;
  std::vector<std::string_view> input_ports;  // excl. clk
  std::vector<OutputDecl> output_ports;
  std::vector<Alias> aliases;  // lhs = rhs net
  std::vector<ConstAssign> const_assigns;
  std::vector<Instance> instances;
  std::vector<Pin> pins;
};

ParsedModule parse_structure(Lexer& lex) {
  ParsedModule m;
  expect(lex, "module");
  const Token name = lex.next();
  if (!util::is_identifier(name.text)) fail(name, "expected module name");
  m.name = name.text;
  expect(lex, "(");
  while (true) {
    const Token dir = lex.next();
    if (dir.text != "input" && dir.text != "output")
      fail(dir, "expected port direction");
    const Token port = lex.next();
    if (!util::is_identifier(port.text)) fail(port, "expected port name");
    if (dir.text == "input") {
      if (port.text != "clk") m.input_ports.push_back(port.text);
    } else {
      m.output_ports.push_back({port.text, port.line});
    }
    const Token sep = lex.next();
    if (sep.text == ")") break;
    if (sep.text != ",") fail(sep, "expected ',' or ')' in port list");
  }
  expect(lex, ";");

  while (true) {
    const Token t = lex.next();
    if (t.text == "endmodule") break;
    if (t.line < 0) fail(t, "unexpected end of file (missing endmodule?)");
    if (t.text == "wire") {
      const Token w = lex.next();
      if (!util::is_identifier(w.text)) fail(w, "expected wire name");
      expect(lex, ";");
      continue;
    }
    if (t.text == "assign") {
      const Token lhs = lex.next();
      expect(lex, "=");
      const Token rhs = lex.next();
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
    const Token iname = lex.next();
    if (!util::is_identifier(iname.text))
      fail(iname, "expected instance name");
    inst.name = iname.text;
    inst.first_pin = static_cast<std::uint32_t>(m.pins.size());
    expect(lex, "(");
    while (true) {
      expect(lex, ".");
      const Token pin = lex.next();
      expect(lex, "(");
      const Token net = lex.next();
      expect(lex, ")");
      m.pins.push_back({pin.text, net.text});
      const Token sep = lex.next();
      if (sep.text == ")") break;
      if (sep.text != ",") fail(sep, "expected ',' or ')' in pin list");
    }
    expect(lex, ";");
    inst.num_pins = static_cast<std::uint32_t>(m.pins.size()) - inst.first_pin;
    m.instances.push_back(inst);
  }
  return m;
}

/// Open-addressing map from a net name (a view into the source text) to a
/// value. Sized once for `max_keys` keys at no more than half load, so it
/// never rehashes; a slot whose key has no data is empty.
template <typename V>
class NetMap {
 public:
  explicit NetMap(std::size_t max_keys) {
    std::size_t capacity = 16;
    while (capacity < 2 * max_keys) capacity *= 2;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  /// The value slot of `key`, and whether the key was just inserted.
  std::pair<V*, bool> insert(std::string_view key) {
    Slot& s = slots_[probe(key)];
    const bool fresh = s.key.data() == nullptr;
    if (fresh) s.key = key;
    return {&s.value, fresh};
  }

  const V* find(std::string_view key) const {
    const Slot& s = slots_[probe(key)];
    return s.key.data() == nullptr ? nullptr : &s.value;
  }
  V* find(std::string_view key) {
    Slot& s = slots_[probe(key)];
    return s.key.data() == nullptr ? nullptr : &s.value;
  }

 private:
  struct Slot {
    std::string_view key;
    V value{};
  };

  /// Index of `key`'s slot, or of the empty slot it would take.
  std::size_t probe(std::string_view key) const {
    std::size_t i = std::hash<std::string_view>{}(key) & mask_;
    while (slots_[i].key.data() != nullptr && slots_[i].key != key)
      i = (i + 1) & mask_;
    return i;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// The netlist of a parsed module, with every semantic defect recorded and
/// repaired: first driver wins, undriven pins and nets tie to constant 0.
VerilogParse build_netlist(const ParsedModule& m) {
  VerilogParse out{Netlist(std::string(m.name)), {}};
  Netlist& nl = out.netlist;
  auto issue = [&](const char* rule, int line, std::string message) {
    out.issues.push_back({rule, line, std::move(message)});
  };

  // Pass 1: create nodes and record each net's driver. A repeated input
  // port re-points its net at the later input.
  NetMap<NodeId> driver(m.input_ports.size() + m.const_assigns.size() +
                        m.instances.size());
  for (const std::string_view port : m.input_ports)
    *driver.insert(port).first = nl.add_input(port);
  for (const ConstAssign& ca : m.const_assigns) {
    const auto [slot, fresh] = driver.insert(ca.lhs);
    if (!fresh) {
      issue("multi-driven", ca.line,
            "net '" + std::string(ca.lhs) + "' has multiple drivers");
      continue;
    }
    *slot = nl.add_const(ca.value);
  }

  struct PendingFanin {
    NodeId node;
    std::size_t slot;
    std::string_view net;
    int line;
  };
  std::vector<PendingFanin> pending;
  pending.reserve(m.pins.size());

  for (const Instance& inst : m.instances) {
    const CellKind kind = kind_from_name(inst.cell);
    if (kind == CellKind::kCount || kind == CellKind::kInput) {
      issue("unknown-cell", inst.line,
            "unknown cell '" + std::string(inst.cell) + "'");
      continue;
    }
    const std::string_view out_pin = output_pin(kind);
    const auto arity = static_cast<std::size_t>(spec(kind).arity);
    // Each input slot keeps its first connection; fill_order lists the
    // filled slots in pin source order.
    std::array<std::string_view, kMaxFanins> slot_net{};
    std::array<std::size_t, kMaxFanins> fill_order{};
    std::size_t filled = 0;
    std::string_view out_net;
    for (std::uint32_t p = 0; p < inst.num_pins; ++p) {
      const Pin& pin = m.pins[inst.first_pin + p];
      if (pin.pin == "CP") continue;  // implicit clock
      if (pin.pin == out_pin) {
        out_net = pin.net;
        continue;
      }
      bool matched = false;
      for (std::size_t slot = 0; slot < arity; ++slot) {
        if (input_pin(kind, slot) != pin.pin) continue;
        if (slot_net[slot].data() == nullptr) {
          slot_net[slot] = pin.net;
          fill_order[filled++] = slot;
        }
        matched = true;
        break;
      }
      if (!matched)
        issue("bad-pin", inst.line,
              "cell '" + std::string(inst.cell) + "' has no pin '" +
                  std::string(pin.pin) + "'");
    }
    if (out_net.data() == nullptr) {
      issue("bad-pin", inst.line,
            "instance '" + std::string(inst.name) + "' lacks output pin ." +
                std::string(out_pin));
      continue;
    }
    std::array<NodeId, kMaxFanins> fanins;
    fanins.fill(kNoNode);
    const NodeId id = nl.add_gate(
        kind, std::span<const NodeId>(fanins.data(), arity), inst.name);
    for (std::size_t k = 0; k < filled; ++k)
      pending.push_back(
          {id, fill_order[k], slot_net[fill_order[k]], inst.line});
    for (std::size_t slot = 0; slot < arity; ++slot) {
      if (slot_net[slot].data() != nullptr) continue;
      issue("undriven-fanin", inst.line,
            "pin ." + std::string(input_pin(kind, slot)) + " of instance '" +
                std::string(inst.name) + "' is unconnected");
      nl.set_fanin(id, slot, nl.add_const(false));
    }
    const auto [slot, fresh] = driver.insert(out_net);
    if (!fresh) {
      issue("multi-driven", inst.line,
            "net '" + std::string(out_net) +
                "' has multiple drivers (instance '" + std::string(inst.name) +
                "')");
      continue;  // first driver wins; this gate becomes dead logic
    }
    *slot = id;
  }

  // Resolve aliases transitively (assign a = b; assign y = a;), the first
  // assign of a net winning, up to 1024 hops: a net resolves to the first
  // driver its chain reaches if that takes fewer than 1024 alias steps. A
  // net with no driver at all is reported and tied to constant 0 so the
  // returned netlist stays well-formed for the structural lint pass.
  //
  // Each chain is walked once: every aliased net it passes memoises the
  // driver the chain reaches (kNoNode for none: a dead end or a cycle) and
  // its distance in alias steps, so a later reference stops at the first
  // memoised net it meets.
  struct AliasLink {
    std::string_view rhs;
    NodeId driver = kNoNode;
    std::size_t distance = 0;
    enum : std::uint8_t { kUnwalked, kOnPath, kDone } state = kUnwalked;
  };
  NetMap<AliasLink> alias(m.aliases.size());
  for (const Alias& a : m.aliases) {
    const auto [link, fresh] = alias.insert(a.lhs);
    if (fresh) link->rhs = a.rhs;
  }
  std::vector<AliasLink*> path;
  auto resolve = [&](std::string_view net, int line) -> NodeId {
    // Walk to a driven net, a memoised one, a dead end or back onto the
    // path (a cycle); `found` and `distance` describe the last net walked.
    path.clear();
    NodeId found = kNoNode;
    std::size_t distance = 0;
    for (std::string_view cur = net;;) {
      if (const NodeId* id = driver.find(cur)) {
        found = *id;
        break;
      }
      AliasLink* link = alias.find(cur);
      if (link == nullptr || link->state == AliasLink::kOnPath) break;
      if (link->state == AliasLink::kDone) {
        found = link->driver;
        distance = link->distance;
        break;
      }
      link->state = AliasLink::kOnPath;
      path.push_back(link);
      cur = link->rhs;
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      (*it)->driver = found;
      (*it)->distance = ++distance;
      (*it)->state = AliasLink::kDone;
    }
    if (found != kNoNode && distance < 1024) return found;
    issue("undriven-fanin", line,
          "net '" + std::string(net) + "' has no driver");
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

/// The whole stream as one buffer, refusing text over kMaxVerilogBytes
/// before it grows past the limit.
std::string read_bounded(std::istream& is) {
  std::string text;
  char chunk[1 << 16];
  while (true) {
    is.read(chunk, sizeof chunk);
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    if (got > kMaxVerilogBytes - text.size())
      throw VerilogLimitError(text.size() + got);
    text.append(chunk, got);
  }
  return text;
}

}  // namespace

VerilogParse parse_verilog_collect(std::string_view text) {
  if (text.size() > kMaxVerilogBytes) throw VerilogLimitError(text.size());
  Lexer lex(text);
  return build_netlist(parse_structure(lex));
}

Netlist parse_verilog(std::string_view text) {
  VerilogParse parse = parse_verilog_collect(text);
  if (!parse.ok()) {
    std::string msg = "verilog parse error: " +
                      std::to_string(parse.issues.size()) + " problem(s)";
    for (const ParseIssue& i : parse.issues)
      msg += "\n  line " + std::to_string(i.line) + ": " + i.message;
    throw std::runtime_error(msg);
  }
  return std::move(parse.netlist);
}

std::string read_netlist_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return read_bounded(in);  // not a regular file (a pipe, say)
  if (size > kMaxVerilogBytes) throw VerilogLimitError(size);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(size));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace fcrit::netlist
