// Static dataflow engine unit tests: the ternary transfer functions of
// every cell kind checked exhaustively against the concrete evaluator,
// the relation-aware evaluator on tied inputs, the equivalence learner,
// the sequential fixpoint on crafted netlists, the fact certificate
// (verify_facts accepts the engine's own output and rejects a certificate
// replayed against a different netlist), and the divergence closure's
// blocking rules.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/designs/designs.hpp"
#include "src/designs/random_circuit.hpp"
#include "src/netlist/cell_library.hpp"
#include "src/netlist/netlist.hpp"
#include "src/obs/trace.hpp"
#include "src/sla/dataflow.hpp"
#include "src/sla/ternary.hpp"

namespace fcrit::sla {
namespace {

using netlist::CellKind;
using netlist::Netlist;
using netlist::NodeId;

const std::array<CellKind, 21> kCombKinds = {
    CellKind::kBuf,   CellKind::kInv,   CellKind::kAnd2,  CellKind::kAnd3,
    CellKind::kAnd4,  CellKind::kNand2, CellKind::kNand3, CellKind::kNand4,
    CellKind::kOr2,   CellKind::kOr3,   CellKind::kOr4,   CellKind::kNor2,
    CellKind::kNor3,  CellKind::kNor4,  CellKind::kXor2,  CellKind::kXnor2,
    CellKind::kAoi21, CellKind::kAoi22, CellKind::kOai21, CellKind::kOai22,
    CellKind::kMux2};

/// Reference transfer function: join of eval_bool over every concrete
/// assignment consistent with the ternary inputs.
Ternary brute_force(CellKind kind, std::span<const Ternary> ins) {
  const int n = static_cast<int>(ins.size());
  bool any = false;
  Ternary acc = Ternary::kX;
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::array<bool, netlist::kMaxFanins> concrete = {};
    bool consistent = true;
    for (int i = 0; i < n; ++i) {
      const bool v = ((bits >> i) & 1) != 0;
      if (is_definite(ins[static_cast<std::size_t>(i)]) &&
          definite_value(ins[static_cast<std::size_t>(i)]) != v) {
        consistent = false;
        break;
      }
      concrete[static_cast<std::size_t>(i)] = v;
    }
    if (!consistent) continue;
    const Ternary out = from_bool(netlist::eval_bool(
        kind, std::span<const bool>(concrete.data(),
                                    static_cast<std::size_t>(n))));
    acc = any ? join(acc, out) : out;
    any = true;
  }
  EXPECT_TRUE(any);
  return acc;
}

TEST(Ternary, TransferMatchesConcreteForEveryKindAndInput) {
  for (const CellKind kind : kCombKinds) {
    const int arity = netlist::spec(kind).arity;
    int combos = 1;
    for (int i = 0; i < arity; ++i) combos *= 3;
    for (int c = 0; c < combos; ++c) {
      std::vector<Ternary> ins;
      int rest = c;
      for (int i = 0; i < arity; ++i) {
        ins.push_back(static_cast<Ternary>(rest % 3));
        rest /= 3;
      }
      EXPECT_EQ(eval_ternary(kind, ins), brute_force(kind, ins))
          << netlist::spec(kind).name << " combo " << c;
    }
  }
}

TEST(Ternary, DffIsTransparent) {
  const std::array<Ternary, 1> z = {Ternary::kZero};
  const std::array<Ternary, 1> o = {Ternary::kOne};
  const std::array<Ternary, 1> x = {Ternary::kX};
  EXPECT_EQ(eval_ternary(CellKind::kDff, z), Ternary::kZero);
  EXPECT_EQ(eval_ternary(CellKind::kDff, o), Ternary::kOne);
  EXPECT_EQ(eval_ternary(CellKind::kDff, x), Ternary::kX);
}

TEST(Ternary, RelatedEvalResolvesTiedInputs) {
  const std::array<Ternary, 2> xx = {Ternary::kX, Ternary::kX};
  const std::array<std::uint64_t, 2> same = {10, 10};      // b == a
  const std::array<std::uint64_t, 2> opposite = {10, 11};  // b == !a
  const std::array<std::uint64_t, 2> unrelated = {10, 12};

  EXPECT_EQ(eval_ternary_related(CellKind::kXor2, xx, same), Ternary::kZero);
  EXPECT_EQ(eval_ternary_related(CellKind::kXor2, xx, opposite), Ternary::kOne);
  EXPECT_EQ(eval_ternary_related(CellKind::kXor2, xx, unrelated), Ternary::kX);

  EXPECT_EQ(eval_ternary_related(CellKind::kXnor2, xx, same), Ternary::kOne);
  EXPECT_EQ(eval_ternary_related(CellKind::kAnd2, xx, opposite),
            Ternary::kZero);
  EXPECT_EQ(eval_ternary_related(CellKind::kOr2, xx, opposite), Ternary::kOne);
  EXPECT_EQ(eval_ternary_related(CellKind::kNand2, xx, opposite),
            Ternary::kOne);

  // MUX(a, a, s) = a for every s: not a constant, but with tied data pins
  // the unrelated evaluator would also say X — the relation shows through
  // learn_equivalence instead (below).
  const std::array<Ternary, 3> mux_ins = {Ternary::kX, Ternary::kX,
                                          Ternary::kX};
  const std::array<std::uint64_t, 3> mux_lits = {10, 10, 14};
  EXPECT_EQ(eval_ternary_related(CellKind::kMux2, mux_ins, mux_lits),
            Ternary::kX);
  const int learned =
      learn_equivalence(CellKind::kMux2, mux_ins, mux_lits);
  EXPECT_TRUE(learned == 0 * 2 + 0 || learned == 1 * 2 + 0)
      << "MUX(a, a, s) must be proved equal to a data input, got "
      << learned;
}

TEST(Ternary, LearnEquivalenceDegenerateGates) {
  const std::array<std::uint64_t, 2> lits = {10, 12};
  const std::array<Ternary, 1> x1 = {Ternary::kX};
  const std::array<std::uint64_t, 1> l1 = {10};

  // Controlled gates degenerate to a buffer/inverter of the live input.
  const std::array<Ternary, 2> and_one = {Ternary::kX, Ternary::kOne};
  EXPECT_EQ(learn_equivalence(CellKind::kAnd2, and_one, lits), 0 * 2 + 0);
  const std::array<Ternary, 2> nand_one = {Ternary::kX, Ternary::kOne};
  EXPECT_EQ(learn_equivalence(CellKind::kNand2, nand_one, lits), 0 * 2 + 1);
  const std::array<Ternary, 2> or_zero = {Ternary::kX, Ternary::kZero};
  EXPECT_EQ(learn_equivalence(CellKind::kOr2, or_zero, lits), 0 * 2 + 0);
  const std::array<Ternary, 2> xor_zero = {Ternary::kX, Ternary::kZero};
  EXPECT_EQ(learn_equivalence(CellKind::kXor2, xor_zero, lits), 0 * 2 + 0);
  const std::array<Ternary, 2> xor_one = {Ternary::kX, Ternary::kOne};
  EXPECT_EQ(learn_equivalence(CellKind::kXor2, xor_one, lits), 0 * 2 + 1);

  EXPECT_EQ(learn_equivalence(CellKind::kBuf, x1, l1), 0 * 2 + 0);
  EXPECT_EQ(learn_equivalence(CellKind::kInv, x1, l1), 0 * 2 + 1);

  // Two free inputs pin the output to neither.
  const std::array<Ternary, 2> free2 = {Ternary::kX, Ternary::kX};
  EXPECT_EQ(learn_equivalence(CellKind::kAnd2, free2, lits), -1);
  EXPECT_EQ(learn_equivalence(CellKind::kXor2, free2, lits), -1);
}

TEST(Dataflow, ConstantsPropagateThroughGates) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId c1 = nl.add_const(true);
  const NodeId g = nl.add_gate(CellKind::kAnd2, {a, c0}, "g");   // == 0
  const NodeId h = nl.add_gate(CellKind::kOr2, {a, c1}, "h");    // == 1
  const NodeId k = nl.add_gate(CellKind::kXor2, {g, h}, "k");    // == 1
  const NodeId free = nl.add_gate(CellKind::kInv, {a}, "free");  // == X
  nl.add_output("y", k);
  nl.add_output("z", free);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  EXPECT_EQ(df.value(a), Ternary::kX);
  EXPECT_EQ(df.value(g), Ternary::kZero);
  EXPECT_EQ(df.value(h), Ternary::kOne);
  EXPECT_EQ(df.value(k), Ternary::kOne);
  EXPECT_EQ(df.value(free), Ternary::kX);
  EXPECT_GE(df.num_constants(), 4u);  // c0, c1, g, h, k

  std::string why;
  EXPECT_TRUE(verify_facts(nl, df, &why)) << why;
}

TEST(Dataflow, SequentialFixpointThroughFlops) {
  Netlist nl;
  const NodeId c0 = nl.add_const(false);
  // q <= AND(q, 0): reset 0, D always 0 — provably constant 0 forever.
  const NodeId q =
      nl.add_gate(CellKind::kDff, {netlist::kNoNode}, "q");
  const NodeId d = nl.add_gate(CellKind::kAnd2, {q, c0}, "d");
  nl.set_fanin(q, 0, d);
  // t <= INV(t): reset 0, toggles — must widen to X.
  const NodeId t =
      nl.add_gate(CellKind::kDff, {netlist::kNoNode}, "t");
  const NodeId ti = nl.add_gate(CellKind::kInv, {t}, "ti");
  nl.set_fanin(t, 0, ti);
  nl.add_output("q", q);
  nl.add_output("t", t);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  EXPECT_EQ(df.value(q), Ternary::kZero);
  EXPECT_EQ(df.value(d), Ternary::kZero);
  EXPECT_EQ(df.value(t), Ternary::kX);
  EXPECT_EQ(df.value(ti), Ternary::kX);

  std::string why;
  EXPECT_TRUE(verify_facts(nl, df, &why)) << why;
}

TEST(Dataflow, ImplicationEngineLearnsEquivalences) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c1 = nl.add_const(true);
  // b = AND(a, 1) == a, x = XOR(a, b) == 0 — only provable through the
  // learned equivalence, the plain lattice keeps both a and b at X.
  const NodeId b = nl.add_gate(CellKind::kAnd2, {a, c1}, "b");
  const NodeId x = nl.add_gate(CellKind::kXor2, {a, b}, "x");
  nl.add_output("y", x);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  EXPECT_EQ(df.literal(b), df.literal(a));
  EXPECT_EQ(df.value(x), Ternary::kZero);
  EXPECT_GE(df.num_equivalences(), 1u);

  std::string why;
  EXPECT_TRUE(verify_facts(nl, df, &why)) << why;
}

TEST(Dataflow, VerifyFactsRejectsForeignCertificate) {
  // Same shape, different logic: the certificate of nl_and (g == 0) is a
  // lie about nl_or (g == 1 there), and verify_facts must say so.
  Netlist nl_and;
  {
    const NodeId a = nl_and.add_input("a");
    const NodeId c0 = nl_and.add_const(false);
    const NodeId g = nl_and.add_gate(CellKind::kAnd2, {a, c0}, "g");
    nl_and.add_output("y", g);
    nl_and.validate();
  }
  Netlist nl_or;
  {
    const NodeId a = nl_or.add_input("a");
    const NodeId c0 = nl_or.add_const(false);
    const NodeId g = nl_or.add_gate(CellKind::kNand2, {a, c0}, "g");
    nl_or.add_output("y", g);
    nl_or.validate();
  }
  const auto df = DataflowAnalysis::run(nl_and);
  std::string why;
  EXPECT_TRUE(verify_facts(nl_and, df, &why)) << why;
  EXPECT_FALSE(verify_facts(nl_or, df, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Dataflow, CertificatesOfRegisteredDesignsVerify) {
  for (const char* name :
       {"sdram_ctrl", "or1200_if", "or1200_icfsm", "or1200_genpc",
        "ee_zonal"}) {
    const auto d = designs::build_design(name);
    const auto df = DataflowAnalysis::run(d.netlist);
    std::string why;
    EXPECT_TRUE(verify_facts(d.netlist, df, &why)) << name << ": " << why;
  }
}

TEST(Dataflow, CertificatesOfRandomCircuitsVerify) {
  for (const std::uint64_t seed : {3u, 14u, 15u, 92u}) {
    designs::RandomCircuitConfig cfg;
    cfg.num_inputs = 6;
    cfg.num_gates = 70;
    cfg.num_flops = 7;
    cfg.num_outputs = 4;
    cfg.seed = seed;
    const auto d = designs::build_random_circuit(cfg);
    const auto df = DataflowAnalysis::run(d.netlist);
    std::string why;
    EXPECT_TRUE(verify_facts(d.netlist, df, &why)) << "seed " << seed << ": "
                                                   << why;
  }
}

TEST(DivergenceClosure, StopsAtControllingConstant) {
  // g structurally reaches the output through k, but k = AND(g, 0) is
  // pinned at 0 whatever g does; a's change still reaches out.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId c0 = nl.add_const(false);
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "g");
  const NodeId k = nl.add_gate(CellKind::kAnd2, {g, c0}, "k");
  const NodeId out = nl.add_gate(CellKind::kOr2, {k, a}, "out");
  nl.add_output("y", out);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  const NodeId seed_g[] = {g};
  EXPECT_EQ(divergence_closure(nl, df, seed_g), std::vector<NodeId>{g});
  const NodeId seed_a[] = {a};
  EXPECT_EQ(divergence_closure(nl, df, seed_a),
            (std::vector<NodeId>{a, g, out}));
}

TEST(DivergenceClosure, CrossesFlipFlops) {
  // A flop is never transparent to blocking: g reaches q, and q's
  // consumer h, even though nothing downstream is pinned.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "g");
  const NodeId q = nl.add_gate(CellKind::kDff, {g}, "q");
  const NodeId h = nl.add_gate(CellKind::kBuf, {q}, "h");
  nl.add_output("y", h);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  const NodeId seeds[] = {g};
  EXPECT_EQ(divergence_closure(nl, df, seeds),
            (std::vector<NodeId>{g, q, h}));
}

TEST(DivergenceClosure, RelatedLiteralsBlockXorOfOneNet) {
  // Both pins of x = XOR(g, g) carry the same corrupted value, so x stays
  // 0: the synthetic literal is keyed by the net, not by the pin.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellKind::kInv, {a}, "g");
  const NodeId x = nl.add_gate(CellKind::kXor2, {g, g}, "x");
  const NodeId out = nl.add_gate(CellKind::kOr2, {x, a}, "out");
  nl.add_output("y", out);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  const NodeId seeds[] = {g};
  EXPECT_EQ(divergence_closure(nl, df, seeds), std::vector<NodeId>{g});
}

TEST(DataflowAnalysis, LiteralIsALookup) {
  // A 120k-node BUF/INV chain: every node is equivalent to the input up
  // to the parity of the inverters before it. A literal() that walked the
  // equivalence chain would take ~n^2/2 steps over the loop below (about
  // 7 * 10^9, seconds); a lookup of the analysis' last pass takes well
  // under a millisecond.
  constexpr int kChain = 120000;
  Netlist nl("chain");
  const NodeId a = nl.add_input("a");
  std::vector<std::uint64_t> expected(1, static_cast<std::uint64_t>(a) * 2);
  NodeId prev = a;
  for (int i = 0; i < kChain; ++i) {
    const bool inv = i % 3 == 1;
    prev = nl.add_gate(inv ? CellKind::kInv : CellKind::kBuf, {prev});
    expected.push_back(expected.back() ^ (inv ? 1u : 0u));
  }
  nl.add_output("y", prev);
  nl.validate();

  const auto df = DataflowAnalysis::run(nl);
  std::vector<std::uint64_t> got(nl.num_nodes());
  obs::Span span("literal_lookup");
  for (NodeId id = 0; id < nl.num_nodes(); ++id) got[id] = df.literal(id);
  const double seconds = span.close();
  EXPECT_EQ(got, expected);
  EXPECT_LT(seconds, 0.05) << "literal() over " << nl.num_nodes()
                           << " nodes took " << seconds << " s";
}

}  // namespace
}  // namespace fcrit::sla
