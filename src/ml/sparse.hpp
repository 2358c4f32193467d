// CSR sparse matrix used for the (normalized) graph adjacency.
//
// Supports the three kernels GCN training and GNNExplainer need:
//   spmm       Y = S  · X        (message passing forward)
//   spmm_t     Y = Sᵀ · X        (backward through the propagation;
//                                 equals spmm for symmetric S)
//   edge_grad  dL/dS[k] = <Gout.row(r_k), X.row(c_k)>  per stored entry
// Entry order is stable (sorted by row, then column), so per-edge masks
// and gradients can be carried in plain vectors aligned with values().
// Values are fixed at construction; with_values() builds a new matrix.
// Construction also flags whether S equals Sᵀ exactly, in one O(nnz) pass.
// spmm and spmm_t are one gather: each output row sums its stored entries'
// rows of X in stored order through the register-blocked row kernel
// (src/ml/row_kernel.hpp), skipping zero-valued entries. spmm_t gathers a
// symmetric S over its own rows, since row c lists column c's entries in
// ascending source row with the same bits; any other S is transposed
// inside the call by a counting pass. All three kernels shard their OUTPUT
// rows across the shared thread pool (src/util/parallel.hpp), each row
// summed by one owner in one fixed order, so results are bitwise-identical
// to the serial path for any thread count.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/ml/matrix.hpp"

namespace fcrit::ml {

struct Coo {
  int row;
  int col;
  float value;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from coordinate triples; duplicate (row, col) entries sum.
  static SparseMatrix from_coo(int rows, int cols, std::vector<Coo> entries);

  /// Adopt CSR arrays as they are. Throws std::runtime_error unless
  /// row_ptr has rows + 1 monotone offsets from 0 to nnz, values has nnz
  /// entries, and every row's columns are in range and strictly increasing.
  static SparseMatrix from_csr(int rows, int cols, std::vector<int> row_ptr,
                               std::vector<int> col_index,
                               std::vector<float> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nnz() const { return col_.size(); }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_index() const { return col_; }
  const std::vector<float>& values() const { return val_; }

  /// Y = S · X. The two-argument forms write into `y`, which must not
  /// alias `x`, reusing its allocation (Matrix::reset); the
  /// value-returning forms wrap them.
  void spmm(const Matrix& x, Matrix& y) const;
  Matrix spmm(const Matrix& x) const {
    Matrix y;
    spmm(x, y);
    return y;
  }

  /// Y = Sᵀ · X.
  void spmm_t(const Matrix& x, Matrix& y) const;
  Matrix spmm_t(const Matrix& x) const {
    Matrix y;
    spmm_t(x, y);
    return y;
  }

  /// Per-entry gradient of L w.r.t. the stored values, where Y = S · X and
  /// g_out = dL/dY: out[k] += <g_out.row(row_k), x.row(col_k)>.
  void accumulate_edge_grad(const Matrix& g_out, const Matrix& x,
                            std::vector<float>& out) const;

  /// Copy with values replaced (same sparsity pattern).
  SparseMatrix with_values(std::vector<float> values) const;

  /// True when S equals Sᵀ exactly: S is square, every stored (r, c) has a
  /// stored (c, r), and the two values compare equal with the same bits, so
  /// a ±0 pair or any NaN makes S asymmetric.
  bool is_symmetric() const { return symmetric_; }

 private:
  /// Sets has_zero_ and symmetric_ from the CSR arrays.
  void scan_values();

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_;
  std::vector<int> col_;
  std::vector<float> val_;
  bool has_zero_ = false;   // some stored value is ±0
  bool symmetric_ = false;  // see is_symmetric()
};

}  // namespace fcrit::ml
