#include "src/ml/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fcrit::ml {
namespace {

SparseMatrix sample() {
  // [[1, 2, 0],
  //  [0, 0, 3],
  //  [4, 0, 5]]
  return SparseMatrix::from_coo(
      3, 3, {{0, 0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 0, 4}, {2, 2, 5}});
}

Matrix dense(const SparseMatrix& s) {
  Matrix d(s.rows(), s.cols());
  for (int r = 0; r < s.rows(); ++r)
    for (int k = s.row_ptr()[static_cast<std::size_t>(r)];
         k < s.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k)
      d(r, s.col_index()[static_cast<std::size_t>(k)]) =
          s.values()[static_cast<std::size_t>(k)];
  return d;
}

TEST(Sparse, FromCooBuildsSortedCsr) {
  const auto s = sample();
  EXPECT_EQ(s.nnz(), 5u);
  EXPECT_EQ(s.row_ptr(), (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(s.col_index(), (std::vector<int>{0, 1, 2, 0, 2}));
}

TEST(Sparse, DuplicateEntriesSum) {
  const auto s =
      SparseMatrix::from_coo(2, 2, {{0, 0, 1}, {0, 0, 2}, {1, 1, 5}});
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.values()[0], 3.0f);
}

TEST(Sparse, OutOfRangeThrows) {
  EXPECT_THROW(SparseMatrix::from_coo(2, 2, {{2, 0, 1}}), std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_coo(2, 2, {{0, -1, 1}}),
               std::runtime_error);
}

TEST(Sparse, FromCsrAdoptsValidArrays) {
  const SparseMatrix ref = sample();
  const SparseMatrix s = SparseMatrix::from_csr(
      3, 3, ref.row_ptr(), ref.col_index(), ref.values());
  EXPECT_EQ(s.row_ptr(), ref.row_ptr());
  EXPECT_EQ(s.col_index(), ref.col_index());
  EXPECT_EQ(s.values(), ref.values());
}

TEST(Sparse, FromCsrChecksItsInvariants) {
  const std::vector<float> v3 = {1, 2, 3};
  // Offsets: wrong count, not starting at 0, not monotone, not ending at nnz.
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 3}, {0, 1, 2}, v3),
               std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {1, 2, 3}, {0, 1, 2}, v3),
               std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 5, 3}, {0, 1, 2}, v3),
               std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1, 2}, {0, 1, 2}, v3),
               std::runtime_error);
  // Values of another length.
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1, 3}, {0, 1, 2}, {1, 2}),
               std::runtime_error);
  // Columns out of range, repeated or descending within a row.
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1, 3}, {0, 1, 3}, v3),
               std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1, 3}, {-1, 1, 2}, v3),
               std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1, 3}, {0, 1, 1}, v3),
               std::runtime_error);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1, 3}, {0, 2, 1}, v3),
               std::runtime_error);
  // Columns may restart between rows.
  EXPECT_NO_THROW(SparseMatrix::from_csr(2, 3, {0, 2, 3}, {1, 2, 0}, v3));
}

TEST(Sparse, SpmmMatchesDense) {
  const auto s = sample();
  util::Rng rng(1);
  const Matrix x = Matrix::randn(3, 4, rng, 1.0f);
  const Matrix expect = matmul(dense(s), x);
  const Matrix got = s.spmm(x);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_NEAR(got(i, j), expect(i, j), 1e-5f);
}

TEST(Sparse, SpmmTMatchesDenseTranspose) {
  const auto s = sample();
  util::Rng rng(2);
  const Matrix x = Matrix::randn(3, 4, rng, 1.0f);
  const Matrix expect = matmul(transpose(dense(s)), x);
  const Matrix got = s.spmm_t(x);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_NEAR(got(i, j), expect(i, j), 1e-5f);
}

TEST(Sparse, EdgeGradMatchesFiniteDifference) {
  // L = sum(Y) where Y = S X; dL/dS[r,c] = sum_j X[c,j].
  const auto s = sample();
  util::Rng rng(3);
  const Matrix x = Matrix::randn(3, 2, rng, 1.0f);
  Matrix g_out = Matrix::full(3, 2, 1.0f);
  std::vector<float> grad;
  s.accumulate_edge_grad(g_out, x, grad);
  ASSERT_EQ(grad.size(), s.nnz());
  for (std::size_t k = 0; k < s.nnz(); ++k) {
    const int c = s.col_index()[k];
    float expect = 0.0f;
    for (int j = 0; j < 2; ++j) expect += x(c, j);
    EXPECT_NEAR(grad[k], expect, 1e-5f);
  }
}

TEST(Sparse, EdgeGradAccumulates) {
  const auto s = sample();
  const Matrix x = Matrix::full(3, 1, 1.0f);
  const Matrix g = Matrix::full(3, 1, 1.0f);
  std::vector<float> grad;
  s.accumulate_edge_grad(g, x, grad);
  s.accumulate_edge_grad(g, x, grad);
  for (const float v : grad) EXPECT_NEAR(v, 2.0f, 1e-6f);
}

TEST(Sparse, WithValuesPreservesPattern) {
  const auto s = sample();
  std::vector<float> vals(s.nnz(), 7.0f);
  const auto s2 = s.with_values(vals);
  EXPECT_EQ(s2.row_ptr(), s.row_ptr());
  EXPECT_EQ(s2.col_index(), s.col_index());
  EXPECT_EQ(s2.values()[0], 7.0f);
  EXPECT_THROW(s.with_values(std::vector<float>(2)), std::runtime_error);
}

TEST(Sparse, IsSymmetric) {
  const auto sym = SparseMatrix::from_coo(
      2, 2, {{0, 1, 3}, {1, 0, 3}, {0, 0, 1}});
  EXPECT_TRUE(sym.is_symmetric());
  const auto asym = SparseMatrix::from_coo(2, 2, {{0, 1, 3}});
  EXPECT_FALSE(asym.is_symmetric());
  const auto diff = SparseMatrix::from_coo(2, 2, {{0, 1, 3}, {1, 0, 4}});
  EXPECT_FALSE(diff.is_symmetric());
  // Exact, not within a tolerance: an explicit zero without its mirror, a
  // one-ulp difference, and a non-square matrix are all asymmetric.
  EXPECT_FALSE(SparseMatrix::from_coo(2, 2, {{0, 1, 0}}).is_symmetric());
  EXPECT_FALSE(SparseMatrix::from_coo(
                   2, 2, {{0, 1, 1.0f}, {1, 0, std::nextafter(1.0f, 2.0f)}})
                   .is_symmetric());
  EXPECT_FALSE(SparseMatrix::from_coo(2, 3, {{0, 0, 1}}).is_symmetric());
  EXPECT_TRUE(SparseMatrix::from_coo(3, 3, {}).is_symmetric());
  EXPECT_TRUE(SparseMatrix::from_csr(2, 2, {0, 2, 4}, {0, 1, 0, 1},
                                     {1, 2, 2, 1})
                  .is_symmetric());
}

TEST(Sparse, WithValuesRecomputesSymmetry) {
  const auto sym = SparseMatrix::from_coo(
      3, 3, {{0, 1, 3}, {1, 0, 3}, {1, 2, 5}, {2, 1, 5}, {2, 2, 1}});
  ASSERT_TRUE(sym.is_symmetric());
  // Values in stored order: (0,1) (1,0) (1,2) (2,1) (2,2).
  EXPECT_FALSE(sym.with_values({3, 3, 5, 6, 1}).is_symmetric());
  EXPECT_TRUE(sym.with_values({4, 4, 7, 7, -2}).is_symmetric());
  const auto asym = sample();
  ASSERT_FALSE(asym.is_symmetric());
  EXPECT_FALSE(asym.with_values(std::vector<float>(asym.nnz(), 1.0f))
                   .is_symmetric());
}

TEST(Sparse, EmptyMatrixBehaves) {
  const auto s = SparseMatrix::from_coo(3, 3, {});
  EXPECT_EQ(s.nnz(), 0u);
  const Matrix x = Matrix::full(3, 2, 1.0f);
  const Matrix y = s.spmm(x);
  EXPECT_EQ(y.frob2(), 0.0);
}

}  // namespace
}  // namespace fcrit::ml
