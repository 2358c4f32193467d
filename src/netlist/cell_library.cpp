#include "src/netlist/cell_library.hpp"

#include <array>
#include <cassert>
#include <cstdlib>

namespace fcrit::netlist {

CellKind kind_from_name(std::string_view name) {
  // Case-insensitive as in the C locale: only a-z fold to upper case.
  auto same = [](std::string_view lib, std::string_view name) {
    if (lib.size() != name.size()) return false;
    for (std::size_t k = 0; k < lib.size(); ++k) {
      const char c = name[k];
      if ((c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c) != lib[k]) return false;
    }
    return true;
  };
  for (int i = 0; i < kNumCellKinds; ++i) {
    if (same(kCellSpecs[static_cast<std::size_t>(i)].name, name))
      return static_cast<CellKind>(i);
  }
  return CellKind::kCount;
}

bool eval_bool(CellKind kind, std::span<const bool> ins) {
  std::array<std::uint64_t, kMaxFanins> words{};
  assert(ins.size() <= words.size());
  for (std::size_t i = 0; i < ins.size(); ++i) words[i] = ins[i] ? ~0ULL : 0;
  return (eval_packed(kind, std::span(words.data(), ins.size())) & 1ULL) != 0;
}

std::uint16_t truth_table(CellKind kind) {
  const int arity = spec(kind).arity;
  assert(arity <= kMaxFanins);
  std::uint16_t tt = 0;
  const int rows = 1 << arity;
  for (int row = 0; row < rows; ++row) {
    std::array<std::uint64_t, kMaxFanins> words{};
    for (int j = 0; j < arity; ++j)
      words[static_cast<std::size_t>(j)] = ((row >> j) & 1) ? ~0ULL : 0;
    const bool out =
        (eval_packed(kind, std::span(words.data(),
                                     static_cast<std::size_t>(arity))) &
         1ULL) != 0;
    if (out) tt = static_cast<std::uint16_t>(tt | (1u << row));
  }
  return tt;
}

double output_one_probability(CellKind kind, std::span<const double> p_in) {
  const int arity = spec(kind).arity;
  assert(static_cast<int>(p_in.size()) == arity);
  if (kind == CellKind::kConst0) return 0.0;
  if (kind == CellKind::kConst1) return 1.0;
  const std::uint16_t tt = truth_table(kind);
  double p1 = 0.0;
  const int rows = 1 << arity;
  for (int row = 0; row < rows; ++row) {
    if (!((tt >> row) & 1)) continue;
    double p = 1.0;
    for (int j = 0; j < arity; ++j) {
      const double pj = p_in[static_cast<std::size_t>(j)];
      p *= ((row >> j) & 1) ? pj : (1.0 - pj);
    }
    p1 += p;
  }
  return p1;
}

}  // namespace fcrit::netlist
