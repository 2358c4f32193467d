#include "src/ml/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "src/ml/kernel_stats.hpp"
#include "src/util/parallel.hpp"

namespace fcrit::ml {

Matrix Matrix::full(int rows, int cols, float value) {
  Matrix m(rows, cols);
  m.fill(value);
  return m;
}

Matrix Matrix::randn(int rows, int cols, util::Rng& rng, float stddev) {
  Matrix m(rows, cols);
  for (float& v : m.data_)
    v = static_cast<float>(rng.next_gaussian()) * stddev;
  return m;
}

Matrix Matrix::xavier(int fan_in, int fan_out, util::Rng& rng) {
  Matrix m(fan_in, fan_out);
  const float s = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : m.data_) v = (2.0f * rng.next_float() - 1.0f) * s;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::hadamard_(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

double Matrix::frob2() const {
  double s = 0.0;
  for (const float v : data_) s += static_cast<double>(v) * v;
  return s;
}

std::string Matrix::shape_string() const {
  return "[" + std::to_string(rows_) + " x " + std::to_string(cols_) + "]";
}

// The three matmul variants shard the OUTPUT rows of C across the shared
// pool (util::parallel_for, static partitioning) and share one row kernel.
// Every output element is accumulated by exactly one thread, from +0, over
// the same terms in the same k-order as the original serial loops (the
// references in tests/kernel_determinism_test.cpp): the kernel changes
// where a partial sum lives and how its terms are found, never which terms
// are added or in what order, and nothing is fused into an FMA. So results
// are bitwise-identical to those loops for any thread count.

namespace {

/// Four lanes of one SSE register (a GCC/Clang vector extension). Its + and
/// * are the scalar IEEE single-precision operations applied lane by lane,
/// so a lane computes exactly what a scalar loop would; it only makes the
/// accumulators' register allocation independent of the auto-vectorizer.
using Vec4 = float __attribute__((vector_size(16)));

/// Widest column block of the row kernel: 32 floats, eight accumulator
/// registers of the sixteen SSE has (64 would spill).
constexpr int kBlock = 32;

/// matmul_tn's k-strip: 64 rows of A and of B (each at most 64 wide in the
/// GCN) stay cache-resident while every owned output row walks them.
constexpr int kStrip = 64;

/// The terms of one output row: coefficient v[t] times row k[t] of B.
struct Terms {
  const int* k;
  const float* v;
  int count;
};

/// Compacts, without branching, the terms (first + t, x[t * stride]) for
/// t < len whose coefficient is nonzero — exactly the terms the original
/// loops kept with `if (x == 0.0f) continue;` (±0 dropped; NaN, Inf and
/// denormals kept).
Terms compact_nonzero(const float* x, std::size_t stride, int len,
                      int first, int* k, float* v) {
  int count = 0;
  for (int t = 0; t < len; ++t) {
    const float xt = x[static_cast<std::size_t>(t) * stride];
    k[count] = first + t;
    v[count] = xt;
    count += xt != 0.0f;
  }
  return {k, v, count};
}

/// out[j] += Σ_t v[t] · b[k[t] · ldb + j] for j < kWidth, each element
/// summed in t order in a local accumulator loaded and stored once: vector
/// registers for whole multiples of four, scalars for the 1- and 2-wide
/// blocks.
template <int kWidth>
void accumulate_block(const Terms& terms, const float* b, std::size_t ldb,
                      float* out) {
  if constexpr (kWidth % 4 == 0) {
    Vec4 acc[kWidth / 4];
    std::memcpy(acc, out, sizeof acc);
    for (int t = 0; t < terms.count; ++t) {
      const float v = terms.v[t];
      const Vec4 vv = {v, v, v, v};
      const float* brow = b + static_cast<std::size_t>(terms.k[t]) * ldb;
      for (std::size_t q = 0; q < kWidth / 4; ++q) {
        Vec4 bq;
        std::memcpy(&bq, brow + 4 * q, sizeof bq);
        acc[q] += vv * bq;
      }
    }
    std::memcpy(out, acc, sizeof acc);
  } else {
    float acc[kWidth];
    std::copy(out, out + kWidth, acc);
    for (int t = 0; t < terms.count; ++t) {
      const float v = terms.v[t];
      const float* brow = b + static_cast<std::size_t>(terms.k[t]) * ldb;
      for (int j = 0; j < kWidth; ++j) acc[j] += v * brow[j];
    }
    std::copy(acc, acc + kWidth, out);
  }
}

/// The row kernel: crow[j] += Σ_t v[t] · b(k[t], j) for j in [j0, b.cols()),
/// in kWidth-wide blocks and then the remainder in halving widths, so every
/// block — the GCN's 1-, 2- and 5-wide ones too — has a fixed-width
/// accumulator.
template <int kWidth = kBlock>
void accumulate_row(const Terms& terms, const Matrix& b, float* crow,
                    int j0 = 0) {
  // No terms adds nothing, and keeps an empty B's null data() out of the
  // pointer arithmetic.
  if (terms.count == 0) return;
  const auto ldb = static_cast<std::size_t>(b.cols());
  for (; j0 + kWidth <= b.cols(); j0 += kWidth)
    accumulate_block<kWidth>(terms, b.data() + j0, ldb, crow + j0);
  if constexpr (kWidth > 1) accumulate_row<kWidth / 2>(terms, b, crow, j0);
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows() && &c != &a && &c != &b);
  static obs::Histogram& hist =
      obs::registry().histogram("ml.kernel.matmul_ms");
  detail::KernelScope scope("matmul", hist);
  c.reset(a.rows(), b.cols());
  const std::int64_t per_row =
      static_cast<std::int64_t>(a.cols()) * b.cols();
  util::parallel_for(0, a.rows(), detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    // Per-chunk scratch: concurrent kernel calls never share it.
    std::vector<int> ks(static_cast<std::size_t>(a.cols()));
    std::vector<float> vs(ks.size());
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const Terms terms = compact_nonzero(a.row(i).data(), 1, a.cols(), 0,
                                          ks.data(), vs.data());
      accumulate_row(terms, b, c.row(i).data());
    }
  });
}

void matmul_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.rows() == b.rows() && &c != &a && &c != &b);
  static obs::Histogram& hist =
      obs::registry().histogram("ml.kernel.matmul_tn_ms");
  detail::KernelScope scope("matmul_tn", hist);
  c.reset(a.cols(), b.cols());
  // C.row(i) sums a(k, i) * B.row(k) over k; sharding by i keeps that
  // k-order per output row. Each chunk walks A and B in kStrip-row strips
  // and, per owned row i, compacts the strip's nonzero a(k, i) and adds
  // them through the row kernel, which resumes from C.row(i)'s running sum.
  const std::int64_t per_row =
      static_cast<std::int64_t>(a.rows()) * b.cols();
  util::parallel_for(0, a.cols(), detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    std::vector<int> ks(kStrip);
    std::vector<float> vs(kStrip);
    const auto lda = static_cast<std::size_t>(a.cols());
    for (int k0 = 0; k0 < a.rows(); k0 += kStrip) {
      const int len = std::min(kStrip, a.rows() - k0);
      for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
        const Terms terms = compact_nonzero(a.row(k0).data() + i, lda, len,
                                            k0, ks.data(), vs.data());
        accumulate_row(terms, b, c.row(i).data());
      }
    }
  });
}

void matmul_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.cols() && &c != &a && &c != &b);
  static obs::Histogram& hist =
      obs::registry().histogram("ml.kernel.matmul_nt_ms");
  detail::KernelScope scope("matmul_nt", hist);
  // C = A Bᵀ through the row kernel over Bᵀ (B is a weight matrix, at most
  // 64 x 64 in the GCN, so the transpose is cheap): c(i, j) still sums
  // a(i, k) * b(j, k) from +0 in ascending k, and — like the original dot
  // product — every k is a term, so 0 * Inf still yields NaN.
  const Matrix bt = transpose(b);
  c.reset(a.rows(), b.rows());
  const std::int64_t per_row =
      static_cast<std::int64_t>(a.cols()) * b.rows();
  util::parallel_for(0, a.rows(), detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    std::vector<int> ks(static_cast<std::size_t>(a.cols()));
    std::iota(ks.begin(), ks.end(), 0);
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i)
      accumulate_row({ks.data(), a.row(i).data(), a.cols()}, bt,
                     c.row(i).data());
  });
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

Matrix col_sum(const Matrix& a) {
  Matrix s(1, a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    for (int j = 0; j < a.cols(); ++j) s(0, j) += arow[j];
  }
  return s;
}

}  // namespace fcrit::ml
