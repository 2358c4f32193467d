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

const SparseMatrix& GcnConv::adjacency() const {
  if (!adj_) throw std::runtime_error("GcnConv: adjacency not set");
  return *adj_;
}

void GcnConv::infer(const SparseMatrix& adj, const Matrix& x, Matrix& z,
                    Matrix& y) const {
  if (x.cols() != w_.rows())
    throw std::runtime_error("GcnConv: feature dim mismatch");
  matmul(x, w_, z);
  if (with_bias_) {
    for (int i = 0; i < z.rows(); ++i) {
      auto zrow = z.row(i);
      for (int j = 0; j < z.cols(); ++j) zrow[j] += b_(0, j);
    }
  }
  adj.spmm(z, y);
}

Matrix& GcnConv::forward(const Matrix& x, Pass pass) {
  infer(adjacency(), x, z_, y_);
  x_ = pass == Pass::kInfer ? nullptr : &x;
  return y_;
}

Matrix& GcnConv::forward_cut(const SparseMatrix& adj, const Matrix& x) {
  infer(adj, x, z_, y_);
  x_ = nullptr;
  return y_;
}

Matrix& GcnConv::backward(Matrix& grad, bool input_grad) {
  const SparseMatrix& adj = adjacency();
  if (!x_) throw std::logic_error("GcnConv::backward: no caching forward");
  // Y = Â Z  =>  dL/dZ = Âᵀ G; edge grads dL/dÂ[u,v] = <G.row(u), Z.row(v)>.
  if (edge_grad_) adj.accumulate_edge_grad(grad, z_, *edge_grad_);
  adj.spmm_t(grad, gz_);
  // Z = X W + b.
  matmul_tn(*x_, gz_, dw_);
  w_grad_ += dw_;
  if (with_bias_) b_grad_ += col_sum(gz_);
  if (input_grad) matmul_nt(gz_, w_, grad);
  return grad;
}

void GcnConv::collect_params(std::vector<Param>& out) {
  out.push_back({&w_, &w_grad_});
  if (with_bias_) out.push_back({&b_, &b_grad_});
}

void GcnConv::release() {
  x_ = nullptr;
  z_ = Matrix();
  y_ = Matrix();
  gz_ = Matrix();
  dw_ = Matrix();
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

Matrix& Linear::forward(const Matrix& x, Pass pass) {
  if (x.cols() != w_.rows())
    throw std::runtime_error("Linear::forward: feature dim mismatch");
  x_ = pass == Pass::kInfer ? nullptr : &x;
  matmul(x, w_, y_);
  for (int i = 0; i < y_.rows(); ++i) {
    auto yrow = y_.row(i);
    for (int j = 0; j < y_.cols(); ++j) yrow[j] += b_(0, j);
  }
  return y_;
}

Matrix& Linear::backward(Matrix& grad, bool input_grad) {
  if (!x_) throw std::logic_error("Linear::backward: no caching forward");
  matmul_tn(*x_, grad, dw_);
  w_grad_ += dw_;
  b_grad_ += col_sum(grad);
  if (!input_grad) return grad;
  matmul_nt(grad, w_, dx_);
  return dx_;
}

void Linear::collect_params(std::vector<Param>& out) {
  out.push_back({&w_, &w_grad_});
  out.push_back({&b_, &b_grad_});
}

void Linear::release() {
  x_ = nullptr;
  y_ = Matrix();
  dw_ = Matrix();
  dx_ = Matrix();
}

std::string Linear::describe() const {
  return "Linear(" + std::to_string(w_.rows()) + " -> " +
         std::to_string(w_.cols()) + ")";
}

// ---- Relu ---------------------------------------------------------------------

namespace {

/// ReLU in place on x, writing the mask too when kMask. Elementwise per row —
/// row sharding is trivially order-preserving. Branch-free: `x > 0` (false
/// for -0, NaN and negatives) becomes an all-ones/all-zeros bit mask that
/// selects both outputs, so the half of the post-ReLU entries that are zero
/// cost no mispredicted branch. The outputs are x itself or +0, and 1 or
/// +0, bit for bit the reference loop in tests/kernel_determinism_test.cpp.
template <bool kMask>
void relu_rows(Matrix& x, Matrix& mask) {
  const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f);
  util::parallel_for(0, x.rows(), detail::row_grain(x.cols()),
                     [&](std::int64_t r0, std::int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      auto xrow = x.row(i);
      float* mrow = kMask ? mask.row(i).data() : nullptr;
      for (int j = 0; j < x.cols(); ++j) {
        const std::uint32_t keep =
            0u - static_cast<std::uint32_t>(xrow[j] > 0.0f);
        if constexpr (kMask) mrow[j] = std::bit_cast<float>(one & keep);
        xrow[j] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(xrow[j]) &
                                       keep);
      }
    }
  });
}

}  // namespace

void relu_in_place(Matrix& x) {
  Matrix no_mask;
  relu_rows<false>(x, no_mask);
}

Matrix& Relu::forward(Matrix& x, Pass pass) {
  if (pass == Pass::kInfer) {
    mask_.reset(0, 0);
    relu_in_place(x);
  } else {
    mask_.reset(x.rows(), x.cols());
    relu_rows<true>(x, mask_);
  }
  return x;
}

Matrix& Relu::backward(Matrix& grad, bool /*input_grad*/) {
  if (mask_.rows() != grad.rows() || mask_.cols() != grad.cols())
    throw std::logic_error("Relu::backward: no caching forward");
  return grad.hadamard_(mask_);
}

// ---- Dropout -------------------------------------------------------------------

// Deliberately serial: the mask consumes one RNG draw per element in row-major
// order, and that draw order must not depend on the thread count. Each draw
// keeps the element exactly when next_float() < keep would hold
// (Rng::float_threshold), and a local copy of the generator keeps its state
// in registers. Branch-free, like ReLU: the keep test becomes an
// all-ones/all-zeros bit mask selecting scale and x * scale, or +0 for both,
// so the unpredictable drops cost no mispredicted branch.
Matrix& Dropout::forward(Matrix& x, Pass pass) {
  if (pass != Pass::kTrain || rate_ <= 0.0) {
    mask_.reset(0, 0);
    return x;
  }
  const float keep = static_cast<float>(1.0 - rate_);
  const float scale = 1.0f / keep;
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(scale);
  const std::uint64_t threshold = util::Rng::float_threshold(keep);
  mask_.reset(x.rows(), x.cols());
  float* xd = x.data();
  float* md = mask_.data();
  util::Rng rng = *rng_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::uint32_t kept =
        0u - static_cast<std::uint32_t>((rng.next() >> 40) < threshold);
    md[i] = std::bit_cast<float>(scale_bits & kept);
    xd[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(xd[i] * scale) &
                                 kept);
  }
  *rng_ = rng;
  return x;
}

Matrix& Dropout::backward(Matrix& grad, bool /*input_grad*/) {
  if (mask_.empty()) return grad;
  return grad.hadamard_(mask_);
}

std::string Dropout::describe() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

// ---- LogSoftmax -----------------------------------------------------------------

void log_softmax_in_place(Matrix& x) {
  // Each row's reduction stays within one chunk, so the j-order (and hence
  // the FP result) matches the serial loop exactly.
  util::parallel_for(0, x.rows(), detail::row_grain(3 * x.cols()),
                     [&](std::int64_t r0, std::int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      auto xrow = x.row(i);
      float mx = xrow[0];
      for (int j = 1; j < x.cols(); ++j) mx = std::max(mx, xrow[j]);
      float sum = 0.0f;
      for (int j = 0; j < x.cols(); ++j) sum += std::exp(xrow[j] - mx);
      const float lse = mx + std::log(sum);
      for (int j = 0; j < x.cols(); ++j) xrow[j] -= lse;
    }
  });
}

Matrix& LogSoftmax::forward(Matrix& x, Pass pass) {
  log_softmax_in_place(x);
  logp_ = pass == Pass::kInfer ? nullptr : &x;
  return x;
}

Matrix& LogSoftmax::backward(Matrix& grad, bool /*input_grad*/) {
  if (!logp_) throw std::logic_error("LogSoftmax::backward: no caching forward");
  // y = x - lse(x); dL/dx = g - softmax(x) * sum_j(g_j) per row.
  for (int i = 0; i < grad.rows(); ++i) {
    auto grow = grad.row(i);
    const auto lrow = logp_->row(i);
    float gsum = 0.0f;
    for (int j = 0; j < grad.cols(); ++j) gsum += grow[j];
    for (int j = 0; j < grad.cols(); ++j)
      grow[j] -= std::exp(lrow[j]) * gsum;
  }
  return grad;
}

// ---- losses ------------------------------------------------------------------------

double masked_nll(const Matrix& logp, const std::vector<int>& labels,
                  const std::vector<int>& mask, Matrix& grad) {
  if (mask.empty()) throw std::runtime_error("masked_nll: empty mask");
  grad.reset(logp.rows(), logp.cols());
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
  grad.reset(pred.rows(), 1);
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
