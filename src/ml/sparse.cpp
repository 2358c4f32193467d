#include "src/ml/sparse.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/ml/kernel_stats.hpp"
#include "src/ml/row_kernel.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace fcrit::ml {

namespace {

/// y = S · x for the CSR matrix S = (ptr, index, value) with `rows` rows:
/// output row r sums value[t] · x.row(index[t]) over r's stored entries t
/// in stored order, skipping zero values, through the row kernel. Rows are
/// sharded by ownership, each summed by one chunk in one fixed order. When
/// no value is zero the rows are their own term lists.
void gather(int rows, const int* ptr, const int* index, const float* value,
            std::size_t nnz, bool has_zero, const Matrix& x, Matrix& y) {
  y.reset(rows, x.cols());
  const std::int64_t per_row =
      rows == 0 ? 1 : (static_cast<std::int64_t>(nnz) * x.cols()) / rows + 1;
  util::parallel_for(0, rows, detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    int longest = 0;
    if (has_zero)
      for (auto r = r0; r < r1; ++r)
        longest = std::max(longest, ptr[r + 1] - ptr[r]);
    // Per-chunk scratch: concurrent kernel calls never share it.
    std::vector<int> ks(static_cast<std::size_t>(longest));
    std::vector<float> vs(ks.size());
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      const int begin = ptr[r], len = ptr[r + 1] - begin;
      const detail::Terms terms =
          has_zero ? detail::compact_nonzero(index + begin, value + begin, len,
                                             ks.data(), vs.data())
                   : detail::Terms{index + begin, value + begin, len};
      detail::accumulate_row(terms, x, y.row(r).data());
    }
  });
}

}  // namespace

SparseMatrix SparseMatrix::from_coo(int rows, int cols,
                                    std::vector<Coo> entries) {
  for (const Coo& e : entries) {
    if (e.row < 0 || e.row >= rows || e.col < 0 || e.col >= cols)
      throw std::runtime_error("SparseMatrix::from_coo: index out of range");
  }
  std::sort(entries.begin(), entries.end(), [](const Coo& a, const Coo& b) {
    return std::tie(a.row, a.col) < std::tie(b.row, b.col);
  });

  SparseMatrix s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    float sum = 0.0f;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    s.col_.push_back(entries[i].col);
    s.val_.push_back(sum);
    ++s.row_ptr_[static_cast<std::size_t>(entries[i].row) + 1];
    i = j;
  }
  for (std::size_t r = 1; r < s.row_ptr_.size(); ++r)
    s.row_ptr_[r] += s.row_ptr_[r - 1];
  s.scan_values();
  return s;
}

SparseMatrix SparseMatrix::from_csr(int rows, int cols,
                                    std::vector<int> row_ptr,
                                    std::vector<int> col_index,
                                    std::vector<float> values) {
  auto fail = [](const char* what) {
    throw std::runtime_error(std::string("SparseMatrix::from_csr: ") + what);
  };
  if (rows < 0 || cols < 0 ||
      row_ptr.size() != static_cast<std::size_t>(rows) + 1 ||
      row_ptr.front() != 0 ||
      static_cast<std::size_t>(row_ptr.back()) != col_index.size() ||
      values.size() != col_index.size())
    fail("array sizes disagree");
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r)
    if (row_ptr[r + 1] < row_ptr[r]) fail("row_ptr is not monotone");
  for (int r = 0; r < rows; ++r) {
    const int begin = row_ptr[static_cast<std::size_t>(r)];
    const int end = row_ptr[static_cast<std::size_t>(r) + 1];
    for (int k = begin; k < end; ++k) {
      const int c = col_index[static_cast<std::size_t>(k)];
      if (c < 0 || c >= cols) fail("column index out of range");
      if (k > begin && c <= col_index[static_cast<std::size_t>(k) - 1])
        fail("columns not strictly increasing within a row");
    }
  }
  SparseMatrix s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.row_ptr_ = std::move(row_ptr);
  s.col_ = std::move(col_index);
  s.val_ = std::move(values);
  s.scan_values();
  return s;
}

void SparseMatrix::scan_values() {
  has_zero_ = std::find(val_.begin(), val_.end(), 0.0f) != val_.end();
  // Walking the rows in order meets column c's entries (r, c) in ascending
  // r, which is row c's stored order when S is symmetric: a cursor per row
  // must find each mirror (c, r) next, equal and with the same bits (so a
  // ±0 pair or a NaN fails). Each match advances one cursor within its
  // row, so nnz matches consume every row.
  symmetric_ = rows_ == cols_;
  std::vector<int> next(row_ptr_.begin(),
                        row_ptr_.begin() + (symmetric_ ? rows_ : 0));
  for (int r = 0; r < rows_ && symmetric_; ++r) {
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1] && symmetric_; ++k) {
      const int c = col_[k], m = next[c]++;
      symmetric_ = m < row_ptr_[c + 1] && col_[m] == r && val_[m] == val_[k] &&
                   std::bit_cast<std::uint32_t>(val_[m]) ==
                       std::bit_cast<std::uint32_t>(val_[k]);
    }
  }
}

void SparseMatrix::spmm(const Matrix& x, Matrix& y) const {
  assert(x.rows() == cols_ && &y != &x);
  static obs::Histogram& hist = obs::registry().histogram("ml.kernel.spmm_ms");
  obs::Span span("spmm", &hist);
  gather(rows_, row_ptr_.data(), col_.data(), val_.data(), nnz(), has_zero_,
         x, y);
}

void SparseMatrix::spmm_t(const Matrix& x, Matrix& y) const {
  assert(x.rows() == rows_ && &y != &x);
  static obs::Histogram& hist =
      obs::registry().histogram("ml.kernel.spmm_t_ms");
  obs::Span span("spmm_t", &hist);
  // Output row c of Sᵀ · X gathers column c of S in ascending source row:
  // the order a scatter over the rows of S would add the same terms in. A
  // symmetric S stores exactly that list as its row c.
  if (symmetric_) {
    gather(rows_, row_ptr_.data(), col_.data(), val_.data(), nnz(), has_zero_,
           x, y);
    return;
  }
  // Any other S is transposed here by a counting pass over its rows in
  // order, which lists every column's entries in ascending source row.
  std::vector<int> t_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (const int c : col_) ++t_ptr[c + 1];
  for (int c = 0; c < cols_; ++c) t_ptr[c + 1] += t_ptr[c];
  std::vector<int> next(t_ptr.begin(), t_ptr.end() - 1), t_row(nnz());
  std::vector<float> t_val(nnz());
  for (int r = 0; r < rows_; ++r) {
    for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int slot = next[col_[k]]++;
      t_row[slot] = r;
      t_val[slot] = val_[k];
    }
  }
  gather(cols_, t_ptr.data(), t_row.data(), t_val.data(), nnz(), has_zero_,
         x, y);
}

void SparseMatrix::accumulate_edge_grad(const Matrix& g_out, const Matrix& x,
                                        std::vector<float>& out) const {
  assert(g_out.rows() == rows_ && x.rows() == cols_);
  assert(g_out.cols() == x.cols());
  out.resize(val_.size(), 0.0f);
  // Each stored entry k lives in exactly one source row, so row sharding
  // gives every out[k] a single writer and an unchanged dot-product order.
  const std::int64_t per_row =
      rows_ == 0 ? 1
                 : (static_cast<std::int64_t>(nnz()) * x.cols()) / rows_ + 1;
  util::parallel_for(0, rows_, detail::row_grain(per_row),
                     [&](std::int64_t r0, std::int64_t r1) {
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      const auto grow = g_out.row(r);
      for (int k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const auto xrow = x.row(col_[static_cast<std::size_t>(k)]);
        float s = 0.0f;
        for (int j = 0; j < x.cols(); ++j) s += grow[j] * xrow[j];
        out[static_cast<std::size_t>(k)] += s;
      }
    }
  });
}

SparseMatrix SparseMatrix::with_values(std::vector<float> values) const {
  if (values.size() != val_.size())
    throw std::runtime_error("SparseMatrix::with_values: size mismatch");
  SparseMatrix s = *this;
  s.val_ = std::move(values);
  s.scan_values();
  return s;
}

}  // namespace fcrit::ml
