// The standard-cell library of the fcrit netlist model.
//
// The library mirrors a classic synthesized-netlist vocabulary (the paper's
// Table 2 shows instances such as ND2_U393, AO3_U143, IV_U112, NR4_U165):
// inverters/buffers, 2-4 input AND/NAND/OR/NOR, XOR/XNOR, AND-OR-INVERT and
// OR-AND-INVERT complex gates, a 2:1 mux and a D flip-flop. Every cell has a
// single output; a net is therefore identified with its driving node.
// The cell truth functions are defined once, in eval_cell below.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string_view>
#include <type_traits>

namespace fcrit::netlist {

enum class CellKind : std::uint8_t {
  kInput,   // primary input (pseudo-cell, no fanins)
  kConst0,  // constant logic 0
  kConst1,  // constant logic 1
  kBuf,     // Y = A
  kInv,     // IV: Y = !A
  kAnd2,    // AN2
  kAnd3,    // AN3
  kAnd4,    // AN4
  kNand2,   // ND2
  kNand3,   // ND3
  kNand4,   // ND4
  kOr2,     // OR2
  kOr3,     // OR3
  kOr4,     // OR4
  kNor2,    // NR2
  kNor3,    // NR3
  kNor4,    // NR4
  kXor2,    // EO2: Y = A ^ B
  kXnor2,   // EN2: Y = !(A ^ B)
  kAoi21,   // AO3: Y = !((A & B) | C)
  kAoi22,   // AO2: Y = !((A & B) | (C & D))
  kOai21,   // OA3: Y = !((A | B) & C)
  kOai22,   // OA2: Y = !((A | B) & (C | D))
  kMux2,    // MX2: Y = S ? B : A   (fanins A, B, S)
  kDff,     // FD1: Q <= D at the clock edge (fanin D)
  kCount,
};

inline constexpr int kNumCellKinds = static_cast<int>(CellKind::kCount);
inline constexpr int kMaxFanins = 4;

/// Static description of a cell kind.
struct CellSpec {
  std::string_view name;   // library name, e.g. "ND2"
  int arity;               // number of fanin pins
  bool inverting;          // §3.1.4 boolean tag: gate negates its logic
  bool sequential;         // true only for kDff
};

inline constexpr std::array<CellSpec, kNumCellKinds> kCellSpecs = {{
    {"INPUT", 0, false, false},  // kInput
    {"TIE0", 0, false, false},   // kConst0
    {"TIE1", 0, false, false},   // kConst1
    {"BUF", 1, false, false},    // kBuf
    {"IV", 1, true, false},      // kInv
    {"AN2", 2, false, false},    // kAnd2
    {"AN3", 3, false, false},    // kAnd3
    {"AN4", 4, false, false},    // kAnd4
    {"ND2", 2, true, false},     // kNand2
    {"ND3", 3, true, false},     // kNand3
    {"ND4", 4, true, false},     // kNand4
    {"OR2", 2, false, false},    // kOr2
    {"OR3", 3, false, false},    // kOr3
    {"OR4", 4, false, false},    // kOr4
    {"NR2", 2, true, false},     // kNor2
    {"NR3", 3, true, false},     // kNor3
    {"NR4", 4, true, false},     // kNor4
    {"EO2", 2, false, false},    // kXor2
    {"EN2", 2, true, false},     // kXnor2
    {"AO3", 3, true, false},     // kAoi21
    {"AO2", 4, true, false},     // kAoi22
    {"OA3", 3, true, false},     // kOai21
    {"OA2", 4, true, false},     // kOai22
    {"MX2", 3, false, false},    // kMux2
    {"FD1", 1, false, true},     // kDff
}};

/// Lookup the spec of a kind. Valid for every kind except kCount.
constexpr const CellSpec& spec(CellKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  assert(idx < kCellSpecs.size());
  return kCellSpecs[idx];
}

/// Parse a library cell name (e.g. "ND2", "IV", case-insensitive).
/// Returns kCount when the name is unknown.
CellKind kind_from_name(std::string_view name);

/// The truth function of cell kind K over 64 packed patterns per word:
/// `ins` holds spec(K).arity fanin words. This is the one definition of the
/// cell semantics that every simulator shares (src/check/scalar_sim keeps
/// its own, as the independent oracle). kDff evaluates as a transparent
/// buffer (the simulators sequence state updates themselves); kInput has no
/// truth function.
template <CellKind K>
constexpr std::uint64_t eval_cell([[maybe_unused]] const std::uint64_t* ins) {
  using enum CellKind;
  if constexpr (K == kConst0) return 0;
  else if constexpr (K == kConst1) return ~0ULL;
  else if constexpr (K == kBuf || K == kDff) return ins[0];
  else if constexpr (K == kInv) return ~ins[0];
  else if constexpr (K == kAnd2) return ins[0] & ins[1];
  else if constexpr (K == kAnd3) return ins[0] & ins[1] & ins[2];
  else if constexpr (K == kAnd4) return ins[0] & ins[1] & ins[2] & ins[3];
  else if constexpr (K == kNand2) return ~(ins[0] & ins[1]);
  else if constexpr (K == kNand3) return ~(ins[0] & ins[1] & ins[2]);
  else if constexpr (K == kNand4) return ~(ins[0] & ins[1] & ins[2] & ins[3]);
  else if constexpr (K == kOr2) return ins[0] | ins[1];
  else if constexpr (K == kOr3) return ins[0] | ins[1] | ins[2];
  else if constexpr (K == kOr4) return ins[0] | ins[1] | ins[2] | ins[3];
  else if constexpr (K == kNor2) return ~(ins[0] | ins[1]);
  else if constexpr (K == kNor3) return ~(ins[0] | ins[1] | ins[2]);
  else if constexpr (K == kNor4) return ~(ins[0] | ins[1] | ins[2] | ins[3]);
  else if constexpr (K == kXor2) return ins[0] ^ ins[1];
  else if constexpr (K == kXnor2) return ~(ins[0] ^ ins[1]);
  else if constexpr (K == kAoi21) return ~((ins[0] & ins[1]) | ins[2]);
  else if constexpr (K == kAoi22)
    return ~((ins[0] & ins[1]) | (ins[2] & ins[3]));
  else if constexpr (K == kOai21) return ~((ins[0] | ins[1]) & ins[2]);
  else if constexpr (K == kOai22)
    return ~((ins[0] | ins[1]) & (ins[2] | ins[3]));
  else {
    static_assert(K == kMux2, "eval_cell: kind has no truth function");
    // Y = S ? B : A with fanins (A, B, S).
    return (ins[0] & ~ins[2]) | (ins[1] & ins[2]);
  }
}

/// The one switch from a runtime kind to per-kind code: calls
/// `f(std::integral_constant<CellKind, K>{})` for K == kind, so a caller's
/// template (eval_cell<K>, a simulator's per-kind run loop) is compiled
/// once per kind. kInput and kCount are not evaluable.
template <typename F>
decltype(auto) visit_kind(CellKind kind, F&& f) {
  using enum CellKind;
  switch (kind) {
    case kConst0: return f(std::integral_constant<CellKind, kConst0>{});
    case kConst1: return f(std::integral_constant<CellKind, kConst1>{});
    case kBuf: return f(std::integral_constant<CellKind, kBuf>{});
    case kInv: return f(std::integral_constant<CellKind, kInv>{});
    case kAnd2: return f(std::integral_constant<CellKind, kAnd2>{});
    case kAnd3: return f(std::integral_constant<CellKind, kAnd3>{});
    case kAnd4: return f(std::integral_constant<CellKind, kAnd4>{});
    case kNand2: return f(std::integral_constant<CellKind, kNand2>{});
    case kNand3: return f(std::integral_constant<CellKind, kNand3>{});
    case kNand4: return f(std::integral_constant<CellKind, kNand4>{});
    case kOr2: return f(std::integral_constant<CellKind, kOr2>{});
    case kOr3: return f(std::integral_constant<CellKind, kOr3>{});
    case kOr4: return f(std::integral_constant<CellKind, kOr4>{});
    case kNor2: return f(std::integral_constant<CellKind, kNor2>{});
    case kNor3: return f(std::integral_constant<CellKind, kNor3>{});
    case kNor4: return f(std::integral_constant<CellKind, kNor4>{});
    case kXor2: return f(std::integral_constant<CellKind, kXor2>{});
    case kXnor2: return f(std::integral_constant<CellKind, kXnor2>{});
    case kAoi21: return f(std::integral_constant<CellKind, kAoi21>{});
    case kAoi22: return f(std::integral_constant<CellKind, kAoi22>{});
    case kOai21: return f(std::integral_constant<CellKind, kOai21>{});
    case kOai22: return f(std::integral_constant<CellKind, kOai22>{});
    case kMux2: return f(std::integral_constant<CellKind, kMux2>{});
    case kDff: return f(std::integral_constant<CellKind, kDff>{});
    case kInput:
    case kCount:
      break;
  }
  assert(false && "visit_kind: non-evaluable cell kind");
  std::abort();
}

/// Evaluate a cell of runtime kind `kind` over 64 packed patterns per word;
/// `ins` holds spec(kind).arity words. Inline, so the frontier engine's
/// per-node switch costs no call.
inline std::uint64_t eval_packed(CellKind kind, const std::uint64_t* ins) {
  return visit_kind(kind, [ins](auto k) {
    return eval_cell<decltype(k)::value>(ins);
  });
}

inline std::uint64_t eval_packed(CellKind kind,
                                 std::span<const std::uint64_t> ins) {
  assert(static_cast<int>(ins.size()) == spec(kind).arity);
  return eval_packed(kind, ins.data());
}

/// Single-pattern convenience wrapper over eval_packed.
bool eval_bool(CellKind kind, std::span<const bool> ins);

/// Truth table of a combinational cell: bit i holds the output for the
/// input assignment whose bit j equals ((i >> j) & 1), j indexing fanins.
/// Arity <= 4 so 16 bits suffice.
std::uint16_t truth_table(CellKind kind);

/// P(output == 1) assuming statistically independent inputs with
/// P(input j == 1) = p_in[j]. Used by the analytic (COP-style) signal
/// probability estimator.
double output_one_probability(CellKind kind, std::span<const double> p_in);

}  // namespace fcrit::netlist
