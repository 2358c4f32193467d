// The row kernel shared by the dense (matrix.cpp) and sparse (sparse.cpp)
// kernels, private to src/ml. An output row is given as a list of terms
// (k, v), each meaning "add v · B.row(k)"; the kernel sums every element
// of the row over those terms in list order, from the row's running value,
// in register blocks. It changes where a partial sum lives and how its
// terms are found, never which terms are added or in what order, and
// nothing is fused into an FMA.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "src/ml/matrix.hpp"

namespace fcrit::ml::detail {

/// Four lanes of one SSE register (a GCC/Clang vector extension). Its + and
/// * are the scalar IEEE single-precision operations applied lane by lane,
/// so a lane computes exactly what a scalar loop would; it only makes the
/// accumulators' register allocation independent of the auto-vectorizer.
using Vec4 = float __attribute__((vector_size(16)));

/// Widest column block of the row kernel: 32 floats, eight accumulator
/// registers of the sixteen SSE has. 64-wide blocks (all sixteen) measured
/// no faster for ee_zonal's 64-wide spmm and slower for its 32 -> 64
/// matmul and its 1- to 5-wide spmm.
inline constexpr int kBlock = 32;

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
inline Terms compact_nonzero(const float* x, std::size_t stride, int len,
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

/// The same over stored (index, value) pairs: a CSR row's entries.
inline Terms compact_nonzero(const int* index, const float* value, int len,
                             int* k, float* v) {
  int count = 0;
  for (int t = 0; t < len; ++t) {
    k[count] = index[t];
    v[count] = value[t];
    count += value[t] != 0.0f;
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

}  // namespace fcrit::ml::detail
