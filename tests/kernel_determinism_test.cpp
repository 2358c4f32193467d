// Bitwise-determinism property suite for the parallel ML math kernels.
//
// The contract under test: for ANY thread count, every kernel in
// src/ml/matrix.cpp and src/ml/sparse.cpp, and the ReLU activation,
// produces output bit-for-bit identical to a naive serial reference. The
// references below are verbatim copies of the original serial loops,
// including the `== 0.0f` skip, which matters: the skipped term may be
// 0 * Inf or 0 * NaN. The production kernels are free to restructure those
// loops, but every output element must see the same terms in the same
// order.
//
// The end-to-end cases train the full pipeline with 4 threads and with 1
// and require byte-identical serialized weights — the strongest check that
// no thread-count-dependent arithmetic hides anywhere in training — and pin
// the hash of those weights, so a change that alters bits identically at
// every thread count is caught too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/designs/designs.hpp"
#include "src/graphir/graph.hpp"
#include "src/ml/layers.hpp"
#include "src/ml/matrix.hpp"
#include "src/ml/serialize.hpp"
#include "src/ml/sparse.hpp"
#include "src/serve/bundle.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace fcrit {
namespace {

using ml::Matrix;
using ml::SparseMatrix;

// ---- serial references (original kernel loops, copied verbatim) -----------

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      if (aik == 0.0f) continue;
      const auto brow = b.row(k);
      auto crow = c.row(i);
      for (int j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix ref_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    const auto arow = a.row(k);
    const auto brow = b.row(k);
    for (int i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      auto crow = c.row(i);
      for (int j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix ref_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    for (int j = 0; j < b.rows(); ++j) {
      const auto brow = b.row(j);
      float s = 0.0f;
      for (int k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      c(i, j) = s;
    }
  }
  return c;
}

Matrix ref_spmm(const SparseMatrix& s, const Matrix& x) {
  Matrix y(s.rows(), x.cols());
  for (int r = 0; r < s.rows(); ++r) {
    auto yrow = y.row(r);
    for (int k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      const float v = s.values()[static_cast<std::size_t>(k)];
      if (v == 0.0f) continue;
      const auto xrow = x.row(s.col_index()[static_cast<std::size_t>(k)]);
      for (int j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

Matrix ref_spmm_t(const SparseMatrix& s, const Matrix& x) {
  Matrix y(s.cols(), x.cols());
  for (int r = 0; r < s.rows(); ++r) {
    const auto xrow = x.row(r);
    for (int k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      const float v = s.values()[static_cast<std::size_t>(k)];
      if (v == 0.0f) continue;
      auto yrow = y.row(s.col_index()[static_cast<std::size_t>(k)]);
      for (int j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

std::vector<float> ref_edge_grad(const SparseMatrix& s, const Matrix& g_out,
                                 const Matrix& x) {
  std::vector<float> out(s.nnz(), 0.0f);
  for (int r = 0; r < s.rows(); ++r) {
    const auto grow = g_out.row(r);
    for (int k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      const auto xrow = x.row(s.col_index()[static_cast<std::size_t>(k)]);
      float acc = 0.0f;
      for (int j = 0; j < x.cols(); ++j) acc += grow[j] * xrow[j];
      out[static_cast<std::size_t>(k)] += acc;
    }
  }
  return out;
}

/// Relu::forward's original branchy loop: returns {output, mask}.
std::pair<Matrix, Matrix> ref_relu(const Matrix& x) {
  Matrix mask(x.rows(), x.cols());
  Matrix y = x;
  for (int i = 0; i < x.rows(); ++i) {
    auto yrow = y.row(i);
    auto mrow = mask.row(i);
    for (int j = 0; j < x.cols(); ++j) {
      if (yrow[j] > 0.0f) {
        mrow[j] = 1.0f;
      } else {
        yrow[j] = 0.0f;
      }
    }
  }
  return {y, mask};
}

// ---- bitwise comparison helpers --------------------------------------------

::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return ::testing::AssertionFailure()
           << "shape " << a.shape_string() << " vs " << b.shape_string();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (int i = 0; i < a.rows(); ++i)
      for (int j = 0; j < a.cols(); ++j) {
        const float av = a(i, j), bv = b(i, j);
        if (std::memcmp(&av, &bv, sizeof(float)) != 0)
          return ::testing::AssertionFailure()
                 << "first mismatch at (" << i << ", " << j << "): " << av
                 << " vs " << bv;
      }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bitwise_equal(const std::vector<float>& a,
                                         const std::vector<float>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "value mismatch";
  return ::testing::AssertionSuccess();
}

/// Bitwise equality, except that any NaN matches any NaN. The payload and
/// sign of a NaN are not part of the kernel contract: when two NaNs meet in
/// an addition x86 keeps the first operand's, and the compiler may commute
/// an addition. Where and whether a NaN appears is part of it.
::testing::AssertionResult same_bits_or_both_nan(const Matrix& a,
                                                 const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return ::testing::AssertionFailure()
           << "shape " << a.shape_string() << " vs " << b.shape_string();
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) {
      const float av = a(i, j), bv = b(i, j);
      if (std::isnan(av) && std::isnan(bv)) continue;
      if (std::memcmp(&av, &bv, sizeof(float)) != 0)
        return ::testing::AssertionFailure()
               << "first mismatch at (" << i << ", " << j << "): " << av
               << " vs " << bv;
    }
  return ::testing::AssertionSuccess();
}

/// Gaussian entries with a `zero_fraction` share of exact zeros, so the
/// `== 0.0f` skip path is exercised. 0.5 is roughly the zero share of the
/// GCN's post-ReLU hidden activations.
Matrix random_matrix(int rows, int cols, util::Rng& rng,
                     float zero_fraction = 0.15f) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) {
      const float u = rng.next_float();
      m(i, j) = u < zero_fraction ? 0.0f
                                  : static_cast<float>(rng.next_gaussian());
    }
  return m;
}

/// Random CSR with deliberately ragged rows: some empty, some dense.
SparseMatrix random_sparse(int rows, int cols, util::Rng& rng) {
  std::vector<ml::Coo> entries;
  for (int r = 0; r < rows; ++r) {
    const float density = rng.next_float();  // per-row density -> ragged
    for (int c = 0; c < cols; ++c) {
      if (rng.next_float() < density * 0.5f) {
        const float v = rng.next_float() < 0.1f
                            ? 0.0f  // explicit stored zero
                            : static_cast<float>(rng.next_gaussian());
        entries.push_back({r, c, v});
      }
    }
  }
  return SparseMatrix::from_coo(rows, cols, std::move(entries));
}

/// A with exact +0 and −0, denormals of both signs and Gaussian entries,
/// and whole columns of ±0 at every k in `zero_k` — the terms where B
/// holds non-finite values (plant_where_zero).
Matrix signed_zero_matrix(int rows, int cols, util::Rng& rng,
                          const std::vector<int>& zero_k = {}) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) {
      const float u = rng.next_float();
      m(i, j) = u < 0.2f    ? 0.0f
                : u < 0.4f  ? -0.0f
                : u < 0.45f ? denorm
                : u < 0.5f  ? -1e-40f
                            : static_cast<float>(rng.next_gaussian());
    }
  for (const int k : zero_k)
    for (int i = 0; i < rows; ++i)
      m(i, k) = rng.next_float() < 0.5f ? 0.0f : -0.0f;
  return m;
}

/// Row k of `b` becomes ±Inf and NaN for every k in `rows`.
void plant_where_zero(Matrix& b, const std::vector<int>& rows) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float planted[] = {inf, -inf, nan};
  for (const int k : rows)
    for (int j = 0; j < b.cols(); ++j) b(k, j) = planted[(k + j) % 3];
}

/// Every third index below n, from 1.
std::vector<int> every_third(int n) {
  std::vector<int> out;
  for (int k = 1; k < n; k += 3) out.push_back(k);
  return out;
}

/// sdram_ctrl's row-normalized adjacency D^-1 (A + I) — asymmetric, so
/// spmm and spmm_t differ — with every entry in a row or column of
/// `poisoned` stored as an explicit ±0, and an input whose poisoned rows
/// hold ±Inf and NaN. Each non-finite value meets only zero-valued
/// entries, so the skip rule alone keeps both products finite.
struct PoisonedAdjacency {
  SparseMatrix adj;
  std::vector<int> poisoned;
};

PoisonedAdjacency poisoned_row_normalized_adjacency() {
  const auto graph =
      graphir::build_graph(designs::build_design("sdram_ctrl").netlist);
  const SparseMatrix rn = graphir::row_normalized_adjacency(graph);
  std::vector<char> hit(static_cast<std::size_t>(rn.rows()), 0);
  PoisonedAdjacency out;
  for (int r = 7; r < rn.rows(); r += 11) {
    hit[static_cast<std::size_t>(r)] = 1;
    out.poisoned.push_back(r);
  }
  std::vector<float> values = rn.values();
  for (int r = 0; r < rn.rows(); ++r)
    for (int k = rn.row_ptr()[static_cast<std::size_t>(r)];
         k < rn.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = rn.col_index()[static_cast<std::size_t>(k)];
      if (hit[static_cast<std::size_t>(r)] || hit[static_cast<std::size_t>(c)])
        values[static_cast<std::size_t>(k)] = k % 2 == 0 ? 0.0f : -0.0f;
    }
  out.adj = rn.with_values(std::move(values));
  return out;
}

class KernelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_num_threads(4); }
  void TearDown() override { util::set_num_threads(0); }
};

// Shapes chosen to hit the edge cases: empty output (0 x N), single row,
// fewer rows than threads, remainder-heavy splits, and big-enough sizes
// that the grain heuristic actually fans out.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {{0, 3, 4},  {3, 0, 4},  {3, 4, 0},  {1, 5, 7},
                         {2, 2, 2},  {3, 8, 5},  {5, 3, 8},  {17, 9, 13},
                         {64, 32, 48}, {100, 7, 1}, {1, 100, 100},
                         {33, 65, 17}};

TEST_F(KernelDeterminismTest, MatmulMatchesSerialBitwise) {
  util::Rng rng(1234);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    EXPECT_TRUE(bitwise_equal(ml::matmul(a, b), ref_matmul(a, b)))
        << s.m << "x" << s.k << " * " << s.k << "x" << s.n;
  }
}

TEST_F(KernelDeterminismTest, MatmulTnMatchesSerialBitwise) {
  util::Rng rng(2345);
  for (const auto& s : kShapes) {
    // A is (k x m) here: C = A^T B is (m x n).
    const Matrix a = random_matrix(s.k, s.m, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    EXPECT_TRUE(bitwise_equal(ml::matmul_tn(a, b), ref_matmul_tn(a, b)))
        << s.k << "x" << s.m << " ^T * " << s.k << "x" << s.n;
  }
}

TEST_F(KernelDeterminismTest, MatmulNtMatchesSerialBitwise) {
  util::Rng rng(3456);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.n, s.k, rng);
    EXPECT_TRUE(bitwise_equal(ml::matmul_nt(a, b), ref_matmul_nt(a, b)))
        << s.m << "x" << s.k << " * (" << s.n << "x" << s.k << ")^T";
  }
}

TEST_F(KernelDeterminismTest, SpmmMatchesSerialBitwise) {
  util::Rng rng(4567);
  for (const auto& s : kShapes) {
    const SparseMatrix adj = random_sparse(s.m, s.k, rng);
    const Matrix x = random_matrix(s.k, s.n, rng);
    EXPECT_TRUE(bitwise_equal(adj.spmm(x), ref_spmm(adj, x)))
        << "S(" << s.m << "x" << s.k << ") * " << s.k << "x" << s.n;
  }
}

TEST_F(KernelDeterminismTest, SpmmTMatchesSerialBitwise) {
  util::Rng rng(5678);
  for (const auto& s : kShapes) {
    const SparseMatrix adj = random_sparse(s.m, s.k, rng);
    const Matrix x = random_matrix(s.m, s.n, rng);
    EXPECT_TRUE(bitwise_equal(adj.spmm_t(x), ref_spmm_t(adj, x)))
        << "S^T(" << s.k << "x" << s.m << ") * " << s.m << "x" << s.n;
  }
}

TEST_F(KernelDeterminismTest, EdgeGradMatchesSerialBitwise) {
  util::Rng rng(6789);
  for (const auto& s : kShapes) {
    const SparseMatrix adj = random_sparse(s.m, s.k, rng);
    const Matrix g = random_matrix(s.m, s.n, rng);
    const Matrix x = random_matrix(s.k, s.n, rng);
    std::vector<float> got;
    adj.accumulate_edge_grad(g, x, got);
    EXPECT_TRUE(bitwise_equal(got, ref_edge_grad(adj, g, x)))
        << "nnz " << adj.nnz();
  }
}

TEST_F(KernelDeterminismTest, ThreadCountSweepIsBitwiseStable) {
  // The SAME kernel result must come out for 1, 2, 3 and 5 lanes, not just
  // match a reference at one setting — thread-count independence. The
  // shapes are large enough that every kernel's row grain fans out, and
  // they include the narrow outputs (B 1, 2 and 3 wide) and the
  // asymmetric adjacency with zero entries facing Inf/NaN rows.
  util::Rng rng(7890);
  const int n = 301;
  const Matrix x = random_matrix(n, 64, rng, 0.5f);  // layer input
  const Matrix w = random_matrix(64, 32, rng);       // weight
  const Matrix g = random_matrix(n, 32, rng, 0.5f);  // output gradient
  const SparseMatrix adj = random_sparse(n, n, rng);
  // Narrow B: matmul's A has ±0 columns and matmul_tn's A ±0 rows exactly
  // where B holds ±Inf/NaN, so every product stays finite.
  const std::vector<int> zero_k = every_third(64), zero_n = every_third(n);
  const Matrix xz = signed_zero_matrix(n, 64, rng, zero_k);
  const Matrix az = ml::transpose(signed_zero_matrix(64, n, rng, zero_n));
  std::vector<Matrix> wz, gz, narrow_x;
  for (const int width : {1, 2, 3}) {
    wz.push_back(random_matrix(64, width, rng));
    plant_where_zero(wz.back(), zero_k);
    gz.push_back(random_matrix(n, width, rng, 0.3f));
    plant_where_zero(gz.back(), zero_n);
    narrow_x.push_back(random_matrix(n, width, rng, 0.3f));
  }
  const PoisonedAdjacency pa = poisoned_row_normalized_adjacency();
  Matrix xp = random_matrix(pa.adj.rows(), 64, rng, 0.3f);
  plant_where_zero(xp, pa.poisoned);

  struct Results {
    Matrix mm, tn, nt, sp, spt;
    std::vector<float> edge;
    std::vector<Matrix> narrow;  // per width: matmul, matmul_tn, spmm, spmm_t
    Matrix psp, pspt;            // on the poisoned adjacency
  };
  const auto run_all = [&] {
    Results r{ml::matmul(x, w),   ml::matmul_tn(x, g), ml::matmul_nt(g, w),
              adj.spmm(g),        adj.spmm_t(g),       {},
              {},                 pa.adj.spmm(xp),     pa.adj.spmm_t(xp)};
    adj.accumulate_edge_grad(g, g, r.edge);
    for (std::size_t i = 0; i < wz.size(); ++i) {
      r.narrow.push_back(ml::matmul(xz, wz[i]));
      r.narrow.push_back(ml::matmul_tn(az, gz[i]));
      r.narrow.push_back(adj.spmm(narrow_x[i]));
      r.narrow.push_back(adj.spmm_t(narrow_x[i]));
    }
    return r;
  };

  util::set_num_threads(1);
  const Results serial = run_all();
  for (const int threads : {2, 3, 5}) {
    util::set_num_threads(threads);
    const Results r = run_all();
    EXPECT_TRUE(bitwise_equal(r.mm, serial.mm)) << "matmul @" << threads;
    EXPECT_TRUE(bitwise_equal(r.tn, serial.tn)) << "matmul_tn @" << threads;
    EXPECT_TRUE(bitwise_equal(r.nt, serial.nt)) << "matmul_nt @" << threads;
    EXPECT_TRUE(bitwise_equal(r.sp, serial.sp)) << "spmm @" << threads;
    EXPECT_TRUE(bitwise_equal(r.spt, serial.spt)) << "spmm_t @" << threads;
    EXPECT_TRUE(bitwise_equal(r.edge, serial.edge)) << "edge @" << threads;
    for (std::size_t i = 0; i < r.narrow.size(); ++i)
      EXPECT_TRUE(bitwise_equal(r.narrow[i], serial.narrow[i]))
          << "narrow case " << i << " @" << threads;
    EXPECT_TRUE(bitwise_equal(r.psp, serial.psp)) << "poisoned spmm @"
                                                  << threads;
    EXPECT_TRUE(bitwise_equal(r.pspt, serial.pspt)) << "poisoned spmm_t @"
                                                    << threads;
  }
}

// The GCN's real widths: 5 input features, hidden 16/32/64, and 2 (classes)
// or 1 (regression) outputs — plus widths either side of 16, 32 and 64, so
// any column blocking in the kernels gets a ragged tail. Inputs are half
// exact zeros, like post-ReLU activations.
const int kGcnWidths[] = {1, 2, 5, 15, 16, 17, 32, 33, 64, 65};

TEST_F(KernelDeterminismTest, GcnLayerShapesMatchSerialBitwise) {
  util::Rng rng(8901);
  const int n = 131;  // node count: odd, and many rows per lane
  for (const int in : kGcnWidths) {
    for (const int out : kGcnWidths) {
      // Forward X W, backward dW = Xᵀ G and dX = G Wᵀ.
      const Matrix x = random_matrix(n, in, rng, 0.5f);
      const Matrix w = random_matrix(in, out, rng, 0.5f);
      const Matrix g = random_matrix(n, out, rng, 0.5f);
      EXPECT_TRUE(bitwise_equal(ml::matmul(x, w), ref_matmul(x, w)))
          << "matmul " << in << " -> " << out;
      EXPECT_TRUE(bitwise_equal(ml::matmul_tn(x, g), ref_matmul_tn(x, g)))
          << "matmul_tn " << in << " -> " << out;
      EXPECT_TRUE(bitwise_equal(ml::matmul_nt(g, w), ref_matmul_nt(g, w)))
          << "matmul_nt " << in << " -> " << out;
    }
  }
}

// B narrower than a vector (1, 2 and 3 columns) takes its own path in
// matmul and matmul_tn. A holds +0, −0 and denormals, and is ±0 at every
// third k, exactly where B holds ±Inf and NaN: a product that is not
// skipped would turn the (finite) reference result into NaN. Row and
// column counts straddle the vector width and the row groups.
TEST_F(KernelDeterminismTest, NarrowOutputsFollowTheSkipRuleBitwise) {
  util::Rng rng(1357);
  for (const int width : {1, 2, 3}) {
    for (const int m : {0, 1, 3, 4, 5, 15, 16, 17, 33, 131}) {
      for (const int k : {0, 1, 5, 16, 64, 65}) {
        const std::vector<int> zero_k = every_third(k);
        Matrix b = random_matrix(k, width, rng);
        plant_where_zero(b, zero_k);
        const Matrix a = signed_zero_matrix(m, k, rng, zero_k);
        const Matrix at =
            ml::transpose(signed_zero_matrix(m, k, rng, zero_k));
        EXPECT_TRUE(bitwise_equal(ml::matmul(a, b), ref_matmul(a, b)))
            << "matmul " << m << "x" << k << " * " << k << "x" << width;
        EXPECT_TRUE(bitwise_equal(ml::matmul_tn(at, b), ref_matmul_tn(at, b)))
            << "matmul_tn " << k << "x" << m << " ^T * " << k << "x" << width;
      }
    }
  }
}

// spmm and spmm_t on an asymmetric adjacency whose explicit zero entries
// face ±Inf/NaN rows of the input: each output row sums its nonzero
// entries in stored order (spmm_t: ascending source row), exactly as the
// reference loops do.
TEST_F(KernelDeterminismTest, SpmmOnAsymmetricAdjacencyWithZeroEntries) {
  const PoisonedAdjacency pa = poisoned_row_normalized_adjacency();
  ASSERT_FALSE(pa.adj.is_symmetric());
  ASSERT_FALSE(pa.poisoned.empty());
  util::Rng rng(2468);
  for (const int width : {1, 2, 3, 5, 16, 32, 33, 64}) {
    Matrix x = random_matrix(pa.adj.rows(), width, rng, 0.3f);
    plant_where_zero(x, pa.poisoned);
    EXPECT_TRUE(bitwise_equal(pa.adj.spmm(x), ref_spmm(pa.adj, x)))
        << "spmm width " << width;
    EXPECT_TRUE(bitwise_equal(pa.adj.spmm_t(x), ref_spmm_t(pa.adj, x)))
        << "spmm_t width " << width;
  }
}

// spmm_t on a symmetric adjacency gathers over the matrix's own rows,
// which must give the reference's scatter bit for bit: on sdram_ctrl's Â,
// and on a copy whose rows and columns in `poisoned` hold +0 on both sides
// of the diagonal (still symmetric), facing ±Inf/NaN rows of the input.
TEST_F(KernelDeterminismTest, SpmmTOnSymmetricAdjacencyMatchesSerialBitwise) {
  const auto graph =
      graphir::build_graph(designs::build_design("sdram_ctrl").netlist);
  const SparseMatrix& adj = graph.normalized_adjacency;
  ASSERT_TRUE(adj.is_symmetric());
  std::vector<char> hit(static_cast<std::size_t>(adj.rows()), 0);
  std::vector<int> poisoned;
  for (int r = 5; r < adj.rows(); r += 13) {
    hit[static_cast<std::size_t>(r)] = 1;
    poisoned.push_back(r);
  }
  std::vector<float> values = adj.values();
  for (int r = 0; r < adj.rows(); ++r)
    for (int k = adj.row_ptr()[static_cast<std::size_t>(r)];
         k < adj.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = adj.col_index()[static_cast<std::size_t>(k)];
      if (hit[static_cast<std::size_t>(r)] || hit[static_cast<std::size_t>(c)])
        values[static_cast<std::size_t>(k)] = 0.0f;
    }
  const SparseMatrix zeroed = adj.with_values(std::move(values));
  ASSERT_TRUE(zeroed.is_symmetric());
  util::Rng rng(1357);
  for (const int width : {1, 2, 3, 5, 16, 32, 33, 64}) {
    Matrix x = random_matrix(adj.rows(), width, rng, 0.3f);
    EXPECT_TRUE(bitwise_equal(adj.spmm_t(x), ref_spmm_t(adj, x)))
        << "width " << width;
    plant_where_zero(x, poisoned);
    EXPECT_TRUE(bitwise_equal(zeroed.spmm_t(x), ref_spmm_t(zeroed, x)))
        << "zeroed width " << width;
  }
}

// The symmetry flag is exact: one mirrored pair of Â stored as +0 and -0,
// or as NaN on both sides, makes the matrix asymmetric, and spmm_t then
// transposes it inside the call. Its result stays the reference's.
TEST_F(KernelDeterminismTest, SignedZeroAndNanPairsAreAsymmetric) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto graph =
      graphir::build_graph(designs::build_design("or1200_icfsm").netlist);
  const SparseMatrix& adj = graph.normalized_adjacency;
  ASSERT_TRUE(adj.is_symmetric());
  // Row 0's last entry (0, c), off the diagonal, and its mirror (c, 0).
  const auto k = static_cast<std::size_t>(adj.row_ptr()[1] - 1);
  const int c = adj.col_index()[k];
  ASSERT_GT(c, 0);
  auto mirror =
      static_cast<std::size_t>(adj.row_ptr()[static_cast<std::size_t>(c)]);
  while (adj.col_index()[mirror] != 0) ++mirror;

  const std::pair<float, float> pairs[] = {{0.0f, -0.0f}, {nan, nan}};
  util::Rng rng(8642);
  for (const auto& [a, b] : pairs) {
    std::vector<float> values = adj.values();
    values[k] = a;
    values[mirror] = b;
    const SparseMatrix s = adj.with_values(std::move(values));
    EXPECT_FALSE(s.is_symmetric()) << a << " / " << b;
    for (const int width : {1, 2, 5, 16, 64}) {
      const Matrix x = random_matrix(s.rows(), width, rng, 0.3f);
      EXPECT_TRUE(bitwise_equal(s.spmm_t(x), ref_spmm_t(s, x)))
          << a << " / " << b << " width " << width;
    }
  }
}

TEST_F(KernelDeterminismTest, NonFiniteTermsFollowTheReferenceSkipRule) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();

  // A zero A term facing an Inf/NaN in B: matmul and matmul_tn skip it
  // (no 0 * Inf = NaN), matmul_nt multiplies it in.
  Matrix a(1, 2), b(2, 3), bt(3, 2), at(2, 1);
  a(0, 1) = 2.0f;
  at(1, 0) = 2.0f;
  const float planted[] = {inf, -inf, nan};
  for (int j = 0; j < 3; ++j) {
    b(0, j) = bt(j, 0) = planted[j];
    b(1, j) = bt(j, 1) = 1.0f;
  }
  const Matrix mm = ml::matmul(a, b), tn = ml::matmul_tn(at, b),
               nt = ml::matmul_nt(a, bt);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(mm(0, j), 2.0f) << j;
    EXPECT_EQ(tn(0, j), 2.0f) << j;
    EXPECT_TRUE(std::isnan(nt(0, j))) << j;
  }

  // The same rule at GCN widths, with Inf/NaN scattered through B.
  util::Rng rng(9012);
  const auto plant = [&](Matrix& m) {
    for (int i = 0; i < m.rows(); ++i)
      for (int j = 0; j < m.cols(); ++j) {
        const float u = rng.next_float();
        if (u < 0.02f) {
          m(i, j) = inf;
        } else if (u < 0.04f) {
          m(i, j) = -inf;
        } else if (u < 0.06f) {
          m(i, j) = nan;
        }
      }
  };
  for (const int in : {5, 17, 64}) {
    for (const int out : {1, 2, 3, 16, 33}) {
      const Matrix x = random_matrix(67, in, rng, 0.5f);
      Matrix w = random_matrix(in, out, rng, 0.5f);
      Matrix g = random_matrix(67, out, rng, 0.5f);
      Matrix wt = random_matrix(out, in, rng, 0.5f);
      plant(w);
      plant(g);
      plant(wt);
      EXPECT_TRUE(same_bits_or_both_nan(ml::matmul(x, w), ref_matmul(x, w)))
          << "matmul " << in << " -> " << out;
      EXPECT_TRUE(
          same_bits_or_both_nan(ml::matmul_tn(x, g), ref_matmul_tn(x, g)))
          << "matmul_tn " << in << " -> " << out;
      EXPECT_TRUE(
          same_bits_or_both_nan(ml::matmul_nt(x, wt), ref_matmul_nt(x, wt)))
          << "matmul_nt " << in << " -> " << out;
    }
  }
}

TEST_F(KernelDeterminismTest, ReluMatchesBranchyLoopBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();  // smallest normal
  const float edge[] = {-0.0f,  0.0f,    nan,    -nan,    inf,  -inf,
                        denorm, -denorm, 1e-40f, -1e-40f, tiny, -tiny,
                        1.0f,   -1.0f};
  util::Rng rng(123);
  // One row of edge values, then enough rows for the row sharding to fan
  // out, with the edge values sprinkled through them.
  Matrix x = random_matrix(257, 64, rng, 0.5f);
  const int n_edge = static_cast<int>(std::size(edge));
  for (int j = 0; j < n_edge; ++j) x(0, j) = edge[j];
  for (int i = 1; i < x.rows(); ++i)
    x(i, static_cast<int>(rng.next_below(64))) =
        edge[rng.next_below(static_cast<std::uint64_t>(n_edge))];

  const auto [ref_y, ref_mask] = ref_relu(x);
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    ml::Relu relu;
    Matrix y = x;
    relu.forward(y, ml::Pass::kTrain);  // in place
    // backward(1) = 1 ⊙ mask: the mask itself, bit for bit.
    Matrix mask = Matrix::full(x.rows(), x.cols(), 1.0f);
    relu.backward(mask, /*input_grad=*/true);
    EXPECT_TRUE(bitwise_equal(y, ref_y)) << threads;
    EXPECT_TRUE(bitwise_equal(mask, ref_mask)) << threads;
    Matrix y_infer = x;
    relu.forward(y_infer, ml::Pass::kInfer);  // the mask-free form
    EXPECT_TRUE(bitwise_equal(y_infer, ref_y)) << threads;
  }
}

TEST_F(KernelDeterminismTest, RaggedCsrWithEmptyAndDenseRows) {
  // Hand-built pathological pattern: empty rows next to a fully dense row,
  // so chunk boundaries land on wildly unequal work.
  std::vector<ml::Coo> entries;
  const int n = 24;
  for (int c = 0; c < n; ++c) entries.push_back({7, c, 0.5f + c});
  entries.push_back({0, 3, 1.25f});
  entries.push_back({23, 0, -2.5f});
  const SparseMatrix s = SparseMatrix::from_coo(n, n, std::move(entries));
  util::Rng rng(999);
  const Matrix x = random_matrix(n, 9, rng);
  EXPECT_TRUE(bitwise_equal(s.spmm(x), ref_spmm(s, x)));
  EXPECT_TRUE(bitwise_equal(s.spmm_t(x), ref_spmm_t(s, x)));
}

// ---- end to end ------------------------------------------------------------

std::string serialized_models(int jobs) {
  core::PipelineConfig cfg;
  cfg.jobs = jobs;
  cfg.probability_cycles = 48;
  cfg.campaign_cycles = 48;
  cfg.train.epochs = 30;
  cfg.train.patience = 0;
  cfg.regressor_train.epochs = 30;
  cfg.regressor_train.patience = 0;
  cfg.train_baselines = false;
  core::FaultCriticalityAnalyzer analyzer(cfg);
  const auto r = analyzer.analyze_design("or1200_icfsm");
  std::ostringstream os;
  ml::save_gcn(*r.gcn, os);
  os << "\n---\n";
  ml::save_gcn(*r.regressor, os);
  return std::move(os).str();
}

TEST(KernelDeterminismEndToEnd, PipelineWeightsAreByteIdenticalAcrossJobs) {
  const std::string parallel4 = serialized_models(4);
  const std::string serial = serialized_models(1);
  util::set_num_threads(0);  // restore default
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(parallel4, serial)
      << "training with 4 threads diverged from the serial path";
}

// fnv1a64 of serialized_models(1), recorded on x86-64 with the original
// kernel loops (the references above). The jobs comparison cannot see a
// kernel change that alters bits the same way at every thread count; this
// pin does.
constexpr std::uint64_t kPinnedModelsHash = 0xf4c0afd2bdcc9ad6ULL;

TEST(KernelDeterminismEndToEnd, PipelineWeightsMatchPinnedHash) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "hash recorded on x86-64; other targets' libm may round "
                  "exp/log differently";
#endif
  const std::string serial = serialized_models(1);
  util::set_num_threads(0);  // restore default
  EXPECT_EQ(serve::fnv1a64(serial), kPinnedModelsHash)
      << std::hex << "got 0x" << serve::fnv1a64(serial);
}

}  // namespace
}  // namespace fcrit
