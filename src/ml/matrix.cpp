#include "src/ml/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "src/ml/kernel_stats.hpp"
#include "src/ml/row_kernel.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
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
  std::string out = "[";
  out += std::to_string(rows_);
  out += " x ";
  out += std::to_string(cols_);
  out += "]";
  return out;
}

// The three matmul variants shard the OUTPUT rows of C across the shared
// pool (util::parallel_for, static partitioning). Every output element is
// accumulated by exactly one thread, from +0, over the same terms in the
// same k-order as the original serial loops (the references in
// tests/kernel_determinism_test.cpp): the kernels change where a partial
// sum lives and how its terms are found, never which terms are added or in
// what order, and nothing is fused into an FMA. So results are
// bitwise-identical to those loops for any thread count. A B at least a
// vector wide goes through the row kernel (src/ml/row_kernel.hpp); a
// narrower one — the GCN's 1- and 2-wide output heads — puts output rows
// in the vector lanes instead.

namespace {

using detail::accumulate_row;
using detail::compact_nonzero;
using detail::Terms;
using detail::Vec4;
using Mask4 = std::int32_t __attribute__((vector_size(16)));

/// a · b lane by lane, except that a lane where a is ±0 gives +0. Added to
/// a sum that started at +0 — which is never −0 — that +0 changes nothing,
/// so summing these products is summing with the reference loops'
/// `if (a == 0.0f) continue;`, bit for bit, whatever b holds (±0, Inf,
/// NaN).
Vec4 nonzero_product(Vec4 a, Vec4 b) {
  const Mask4 keep = a != Vec4{};
  return std::bit_cast<Vec4>(std::bit_cast<Mask4>(a * b) & keep);
}

/// Elements first .. first + 3 of `row` as four lanes, +0 for those at or
/// past `end`, which are not read.
Vec4 load_lanes(const float* row, int first, int end) {
  Vec4 v{};
  if (first + 4 <= end) {
    std::memcpy(&v, row + first, sizeof v);
  } else {
    for (int l = 0; first + l < end; ++l) v[l] = row[first + l];
  }
  return v;
}

/// matmul_tn's k-strip: 64 rows of A and of B (each at most 64 wide in the
/// GCN) stay cache-resident while every owned output row walks them.
constexpr int kStrip = 64;

/// Row groups of four that the narrow kernels keep in flight: independent
/// accumulator chains that hide the add latency.
constexpr int kGroups = 4;

/// C = A · B for B narrower than a vector (kN = b.cols() < 4), output rows
/// [r0, r1). The row kernel would feed a whole compacted row of A into one
/// or two scalar chains; here rows take the lanes instead — four rows per
/// vector, kGroups vectors in flight — and each lane sums its c(i, j) over
/// ascending k from +0, a zero a(i, k) adding a selected +0.
template <int kN>
void matmul_narrow(const Matrix& a, const Matrix& b, Matrix& c, int r0,
                   int r1) {
  const auto lda = static_cast<std::size_t>(a.cols());
  for (int i0 = r0; i0 < r1; i0 += 4 * kGroups) {
    const int live = std::min(4 * kGroups, r1 - i0);
    // A short last group repeats its last row in the spare lanes, whose
    // sums are never stored.
    const float* rows[4 * kGroups];
    for (int l = 0; l < 4 * kGroups; ++l)
      rows[l] = a.data() +
                static_cast<std::size_t>(i0 + std::min(l, live - 1)) * lda;
    Vec4 acc[kGroups][kN] = {};
    for (int k = 0; k < a.cols(); ++k) {
      Vec4 bk[kN];
      for (int j = 0; j < kN; ++j) {
        const float v = b(k, j);
        bk[j] = Vec4{v, v, v, v};
      }
      for (int g = 0; g < kGroups; ++g) {
        const float* const* r = rows + 4 * g;
        const Vec4 ak = {r[0][k], r[1][k], r[2][k], r[3][k]};
        for (int j = 0; j < kN; ++j) acc[g][j] += nonzero_product(ak, bk[j]);
      }
    }
    for (int l = 0; l < live; ++l)
      for (int j = 0; j < kN; ++j) c(i0 + l, j) = acc[l / 4][j][l % 4];
  }
}

/// C = Aᵀ · B for B narrower than a vector, output rows [r0, r1): A's
/// columns take the lanes, so every row of A is read with plain vector
/// loads, and each lane sums its c(i, j) over ascending k from +0, a zero
/// a(k, i) adding a selected +0.
template <int kN>
void matmul_tn_narrow(const Matrix& a, const Matrix& b, Matrix& c, int r0,
                      int r1) {
  for (int i0 = r0; i0 < r1; i0 += 4 * kGroups) {
    const int live = std::min(4 * kGroups, r1 - i0);
    Vec4 acc[kGroups][kN] = {};
    for (int k = 0; k < a.rows(); ++k) {
      const float* arow = a.row(k).data();
      Vec4 bk[kN];
      for (int j = 0; j < kN; ++j) {
        const float v = b(k, j);
        bk[j] = Vec4{v, v, v, v};
      }
      for (int g = 0; g < kGroups; ++g) {
        const Vec4 ak = load_lanes(arow, i0 + 4 * g, r1);
        for (int j = 0; j < kN; ++j) acc[g][j] += nonzero_product(ak, bk[j]);
      }
    }
    for (int l = 0; l < live; ++l)
      for (int j = 0; j < kN; ++j) c(i0 + l, j) = acc[l / 4][j][l % 4];
  }
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows() && &c != &a && &c != &b);
  static obs::Histogram& hist =
      obs::registry().histogram("ml.kernel.matmul_ms");
  obs::Span span("matmul", &hist);
  c.reset(a.rows(), b.cols());
  const std::int64_t per_row =
      static_cast<std::int64_t>(a.cols()) * b.cols();
  util::parallel_for(0, a.rows(), detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    const int i0 = static_cast<int>(r0), i1 = static_cast<int>(r1);
    switch (b.cols()) {
      case 1: return matmul_narrow<1>(a, b, c, i0, i1);
      case 2: return matmul_narrow<2>(a, b, c, i0, i1);
      case 3: return matmul_narrow<3>(a, b, c, i0, i1);
    }
    // Per-chunk scratch: concurrent kernel calls never share it.
    std::vector<int> ks(static_cast<std::size_t>(a.cols()));
    std::vector<float> vs(ks.size());
    for (int i = i0; i < i1; ++i) {
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
  obs::Span span("matmul_tn", &hist);
  c.reset(a.cols(), b.cols());
  // C.row(i) sums a(k, i) * B.row(k) over k; sharding by i keeps that
  // k-order per output row. A B at least a vector wide: each chunk walks A
  // and B in kStrip-row strips and, per owned row i, compacts the strip's
  // nonzero a(k, i) and adds them through the row kernel, which resumes
  // from C.row(i)'s running sum.
  const std::int64_t per_row =
      static_cast<std::int64_t>(a.rows()) * b.cols();
  util::parallel_for(0, a.cols(), detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    const int i0 = static_cast<int>(r0), i1 = static_cast<int>(r1);
    switch (b.cols()) {
      case 1: return matmul_tn_narrow<1>(a, b, c, i0, i1);
      case 2: return matmul_tn_narrow<2>(a, b, c, i0, i1);
      case 3: return matmul_tn_narrow<3>(a, b, c, i0, i1);
    }
    std::vector<int> ks(kStrip);
    std::vector<float> vs(kStrip);
    const auto lda = static_cast<std::size_t>(a.cols());
    for (int k0 = 0; k0 < a.rows(); k0 += kStrip) {
      const int len = std::min(kStrip, a.rows() - k0);
      for (int i = i0; i < i1; ++i) {
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
  obs::Span span("matmul_nt", &hist);
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
