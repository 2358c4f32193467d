// Dense row-major float matrix — the tensor type of the fcrit ML stack.
//
// Deliberately minimal: the GCN, its baselines and the explainer need
// matmul (plain, transposed-A, transposed-B), elementwise ops, row/col
// reductions and a few initializers. The three matmul kernels shard their
// output rows across the shared pool (src/util/parallel.hpp) with per-row
// accumulation order unchanged, so results are bitwise-identical to the
// serial path for any thread count; everything else stays a clear serial
// row-major loop.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/util/rng.hpp"

namespace fcrit::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
    assert(rows >= 0 && cols >= 0);
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
  }

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols); }
  static Matrix full(int rows, int cols, float value);
  /// i.i.d. N(0, stddev^2).
  static Matrix randn(int rows, int cols, util::Rng& rng, float stddev);
  /// Glorot/Xavier uniform: U(-s, s) with s = sqrt(6 / (fan_in + fan_out)).
  static Matrix xavier(int fan_in, int fan_out, util::Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  float operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  std::span<float> row(int r) {
    return {data_.data() + static_cast<std::size_t>(r) * cols_,
            static_cast<std::size_t>(cols_)};
  }
  std::span<const float> row(int r) const {
    return {data_.data() + static_cast<std::size_t>(r) * cols_,
            static_cast<std::size_t>(cols_)};
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void set_zero() { fill(0.0f); }

  /// Becomes a rows x cols matrix of +0, reusing the allocation when it is
  /// large enough — how the kernels and layers fill a caller-owned output.
  void reset(int rows, int cols) {
    assert(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
  }

  // In-place elementwise ops.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float s);
  Matrix& hadamard_(const Matrix& other);  // *this ⊙ other

  /// Frobenius norm squared.
  double frob2() const;

  std::string shape_string() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. The three-argument forms write into `c`, which must not
/// alias an operand, reusing its allocation (Matrix::reset); the
/// value-returning forms wrap them.
void matmul(const Matrix& a, const Matrix& b, Matrix& c);
inline Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul(a, b, c);
  return c;
}
/// C = A^T * B (without materializing the transpose).
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& c);
inline Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_tn(a, b, c);
  return c;
}
/// C = A * B^T.
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& c);
inline Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt(a, b, c);
  return c;
}

Matrix transpose(const Matrix& a);

/// Column sums as a 1 x cols matrix.
Matrix col_sum(const Matrix& a);

}  // namespace fcrit::ml
