#include "src/ml/layers.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/ml/kernel_stats.hpp"
#include "src/util/parallel.hpp"

namespace fcrit::ml {

// ---- GcnConv ----------------------------------------------------------------

GcnConv::GcnConv(int in_features, int out_features, util::Rng& rng,
                 bool with_bias)
    : w_(Matrix::xavier(in_features, out_features, rng)),
      w_grad_(in_features, out_features),
      b_(1, out_features),
      b_grad_(1, out_features),
      with_bias_(with_bias) {}

Matrix GcnConv::forward(const Matrix& x, bool /*training*/) {
  if (!adj_)
    throw std::runtime_error("GcnConv::forward: adjacency not set");
  if (x.cols() != w_.rows())
    throw std::runtime_error("GcnConv::forward: feature dim mismatch");
  cached_x_ = x;
  Matrix z = matmul(x, w_);
  if (with_bias_) {
    for (int i = 0; i < z.rows(); ++i) {
      auto zrow = z.row(i);
      for (int j = 0; j < z.cols(); ++j) zrow[j] += b_(0, j);
    }
  }
  cached_z_ = z;
  return adj_->spmm(z);
}

Matrix GcnConv::backward(const Matrix& grad_out) {
  if (!adj_)
    throw std::runtime_error("GcnConv::backward: adjacency not set");
  // Y = Â Z  =>  dL/dZ = Âᵀ G; edge grads dL/dÂ[u,v] = <G.row(u), Z.row(v)>.
  if (edge_grad_) adj_->accumulate_edge_grad(grad_out, cached_z_, *edge_grad_);
  const Matrix gz = adj_->spmm_t(grad_out);
  // Z = X W + b.
  w_grad_ += matmul_tn(cached_x_, gz);
  if (with_bias_) b_grad_ += col_sum(gz);
  return matmul_nt(gz, w_);
}

void GcnConv::collect_params(std::vector<Param>& out) {
  out.push_back({&w_, &w_grad_});
  if (with_bias_) out.push_back({&b_, &b_grad_});
}

std::string GcnConv::describe() const {
  return "GCNConv(" + std::to_string(w_.rows()) + " -> " +
         std::to_string(w_.cols()) + ")";
}

// ---- Linear -------------------------------------------------------------------

Linear::Linear(int in_features, int out_features, util::Rng& rng)
    : w_(Matrix::xavier(in_features, out_features, rng)),
      w_grad_(in_features, out_features),
      b_(1, out_features),
      b_grad_(1, out_features) {}

Matrix Linear::forward(const Matrix& x, bool /*training*/) {
  if (x.cols() != w_.rows())
    throw std::runtime_error("Linear::forward: feature dim mismatch");
  cached_x_ = x;
  Matrix y = matmul(x, w_);
  for (int i = 0; i < y.rows(); ++i) {
    auto yrow = y.row(i);
    for (int j = 0; j < y.cols(); ++j) yrow[j] += b_(0, j);
  }
  return y;
}

Matrix Linear::backward(const Matrix& grad_out) {
  w_grad_ += matmul_tn(cached_x_, grad_out);
  b_grad_ += col_sum(grad_out);
  return matmul_nt(grad_out, w_);
}

void Linear::collect_params(std::vector<Param>& out) {
  out.push_back({&w_, &w_grad_});
  out.push_back({&b_, &b_grad_});
}

std::string Linear::describe() const {
  return "Linear(" + std::to_string(w_.rows()) + " -> " +
         std::to_string(w_.cols()) + ")";
}

// ---- Relu ---------------------------------------------------------------------

Matrix Relu::forward(const Matrix& x, bool /*training*/) {
  mask_ = Matrix(x.rows(), x.cols());
  Matrix y = x;
  // Elementwise per row — row sharding is trivially order-preserving.
  // Branch-free: `y > 0` (false for -0, NaN and negatives) becomes an
  // all-ones/all-zeros bit mask that selects both outputs, so the half of
  // the post-ReLU entries that are zero cost no mispredicted branch. The
  // outputs are x itself or +0, and 1 or +0, bit for bit the reference
  // loop in tests/kernel_determinism_test.cpp.
  const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f);
  util::parallel_for(0, x.rows(), detail::row_grain(x.cols()),
                     [&](std::int64_t r0, std::int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      auto yrow = y.row(i);
      auto mrow = mask_.row(i);
      for (int j = 0; j < x.cols(); ++j) {
        const std::uint32_t keep =
            0u - static_cast<std::uint32_t>(yrow[j] > 0.0f);
        mrow[j] = std::bit_cast<float>(one & keep);
        yrow[j] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(yrow[j]) &
                                       keep);
      }
    }
  });
  return y;
}

Matrix Relu::backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  g.hadamard_(mask_);
  return g;
}

// ---- Dropout -------------------------------------------------------------------

// Deliberately serial: the mask consumes one RNG draw per element in row-major
// order, and that draw order must not depend on the thread count.
Matrix Dropout::forward(const Matrix& x, bool training) {
  if (!training || rate_ <= 0.0) {
    mask_ = Matrix();
    return x;
  }
  const float keep = static_cast<float>(1.0 - rate_);
  const float scale = 1.0f / keep;
  mask_ = Matrix(x.rows(), x.cols());
  Matrix y = x;
  for (int i = 0; i < x.rows(); ++i) {
    auto yrow = y.row(i);
    auto mrow = mask_.row(i);
    for (int j = 0; j < x.cols(); ++j) {
      if (rng_->next_float() < keep) {
        mrow[j] = scale;
        yrow[j] *= scale;
      } else {
        yrow[j] = 0.0f;
      }
    }
  }
  return y;
}

Matrix Dropout::backward(const Matrix& grad_out) {
  if (mask_.empty()) return grad_out;
  Matrix g = grad_out;
  g.hadamard_(mask_);
  return g;
}

std::string Dropout::describe() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

// ---- LogSoftmax -----------------------------------------------------------------

Matrix LogSoftmax::forward(const Matrix& x, bool /*training*/) {
  Matrix y = x;
  // Each row's reduction stays within one chunk, so the j-order (and hence
  // the FP result) matches the serial loop exactly.
  util::parallel_for(0, x.rows(), detail::row_grain(3 * x.cols()),
                     [&](std::int64_t r0, std::int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      auto yrow = y.row(i);
      float mx = yrow[0];
      for (int j = 1; j < x.cols(); ++j) mx = std::max(mx, yrow[j]);
      float sum = 0.0f;
      for (int j = 0; j < x.cols(); ++j) sum += std::exp(yrow[j] - mx);
      const float lse = mx + std::log(sum);
      for (int j = 0; j < x.cols(); ++j) yrow[j] -= lse;
    }
  });
  cached_logp_ = y;
  return y;
}

Matrix LogSoftmax::backward(const Matrix& grad_out) {
  // y = x - lse(x); dL/dx = g - softmax(x) * sum_j(g_j) per row.
  Matrix g = grad_out;
  for (int i = 0; i < g.rows(); ++i) {
    auto grow = g.row(i);
    const auto lrow = cached_logp_.row(i);
    float gsum = 0.0f;
    for (int j = 0; j < g.cols(); ++j) gsum += grow[j];
    for (int j = 0; j < g.cols(); ++j)
      grow[j] -= std::exp(lrow[j]) * gsum;
  }
  return g;
}

// ---- losses ------------------------------------------------------------------------

double masked_nll(const Matrix& logp, const std::vector<int>& labels,
                  const std::vector<int>& mask, Matrix& grad) {
  if (mask.empty()) throw std::runtime_error("masked_nll: empty mask");
  grad = Matrix(logp.rows(), logp.cols());
  double loss = 0.0;
  const float inv = 1.0f / static_cast<float>(mask.size());
  for (const int i : mask) {
    const int y = labels[static_cast<std::size_t>(i)];
    loss -= static_cast<double>(logp(i, y));
    grad(i, y) = -inv;
  }
  return loss / static_cast<double>(mask.size());
}

double masked_mse(const Matrix& pred, const std::vector<double>& target,
                  const std::vector<int>& mask, Matrix& grad) {
  if (mask.empty()) throw std::runtime_error("masked_mse: empty mask");
  if (pred.cols() != 1)
    throw std::runtime_error("masked_mse: prediction must be N x 1");
  grad = Matrix(pred.rows(), 1);
  double loss = 0.0;
  const float inv = 2.0f / static_cast<float>(mask.size());
  for (const int i : mask) {
    const double d = static_cast<double>(pred(i, 0)) -
                     target[static_cast<std::size_t>(i)];
    loss += d * d;
    grad(i, 0) = static_cast<float>(d) * inv;
  }
  return loss / static_cast<double>(mask.size());
}

}  // namespace fcrit::ml
