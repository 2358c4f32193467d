#include "src/ml/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

namespace fcrit::ml {
namespace {

/// Scalar loss used by all gradient checks: weighted sum of the output so
/// dL/dY is a fixed random matrix.
struct LossProbe {
  Matrix weight;  // same shape as the layer output

  explicit LossProbe(const Matrix& y, util::Rng& rng)
      : weight(Matrix::randn(y.rows(), y.cols(), rng, 1.0f)) {}

  double value(const Matrix& y) const {
    double s = 0.0;
    for (int i = 0; i < y.rows(); ++i)
      for (int j = 0; j < y.cols(); ++j)
        s += static_cast<double>(weight(i, j)) * y(i, j);
    return s;
  }
};

/// Central-difference numeric gradient of loss(layer(x)) w.r.t. x(i,j),
/// through inference passes (the elementwise layers rewrite their input,
/// so each pass gets its own perturbed copy).
double numeric_grad_x(Layer& layer, const Matrix& x, const LossProbe& probe,
                      int i, int j, float eps = 1e-3f) {
  Matrix xp = x;
  xp(i, j) += eps;
  Matrix xm = x;
  xm(i, j) -= eps;
  const double lp = probe.value(layer.forward(xp, Pass::kInfer));
  const double lm = probe.value(layer.forward(xm, Pass::kInfer));
  return (lp - lm) / (2.0 * eps);
}

/// dL/dX for dL/dY = probe.weight, after a grad-capable pass over `x`.
Matrix input_grad(Layer& layer, const LossProbe& probe) {
  Matrix g = probe.weight;
  return layer.backward(g, /*input_grad=*/true);
}

TEST(Relu, ForwardClampsNegativesInPlace) {
  Relu relu;
  Matrix x(1, 4);
  x(0, 0) = -1.0f;
  x(0, 1) = 2.0f;
  x(0, 2) = 0.0f;
  x(0, 3) = -0.5f;
  const Matrix& y = relu.forward(x, Pass::kInfer);
  EXPECT_EQ(&y, &x);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 1), 2.0f);
  EXPECT_EQ(y(0, 2), 0.0f);
  EXPECT_EQ(y(0, 3), 0.0f);
}

TEST(Relu, BackwardGradientCheck) {
  util::Rng rng(1);
  Relu relu;
  const Matrix x = Matrix::randn(3, 5, rng, 1.0f);
  Matrix h = x;
  const Matrix y = relu.forward(h, Pass::kEval);
  LossProbe probe(y, rng);
  const Matrix dx = input_grad(relu, probe);
  for (int i = 0; i < x.rows(); ++i)
    for (int j = 0; j < x.cols(); ++j) {
      if (std::fabs(x(i, j)) < 5e-3f) continue;  // kink
      EXPECT_NEAR(dx(i, j), numeric_grad_x(relu, x, probe, i, j), 1e-2)
          << i << "," << j;
    }
}

TEST(Relu, BackwardAfterInferenceThrows) {
  Relu relu;
  Matrix x = Matrix::full(2, 3, 1.0f);
  relu.forward(x, Pass::kTrain);
  relu.forward(x, Pass::kInfer);  // drops the mask
  Matrix g = Matrix::full(2, 3, 1.0f);
  EXPECT_THROW(relu.backward(g, true), std::logic_error);
}

TEST(LogSoftmax, RowsAreLogProbabilities) {
  util::Rng rng(2);
  LogSoftmax ls;
  Matrix x = Matrix::randn(4, 3, rng, 2.0f);
  const Matrix& y = ls.forward(x, Pass::kInfer);
  EXPECT_EQ(&y, &x);
  for (int i = 0; i < y.rows(); ++i) {
    double sum = 0.0;
    for (int j = 0; j < y.cols(); ++j) {
      EXPECT_LE(y(i, j), 0.0f);
      sum += std::exp(static_cast<double>(y(i, j)));
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(LogSoftmax, InvariantToRowShift) {
  LogSoftmax ls;
  Matrix x(1, 3);
  x(0, 0) = 100.0f;
  x(0, 1) = 101.0f;
  x(0, 2) = 99.0f;
  Matrix x2 = x;
  for (int j = 0; j < 3; ++j) x2(0, j) -= 100.0f;
  const Matrix y1 = ls.forward(x, Pass::kInfer);
  const Matrix y2 = ls.forward(x2, Pass::kInfer);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(y1(0, j), y2(0, j), 1e-5f);
}

TEST(LogSoftmax, BackwardGradientCheck) {
  util::Rng rng(3);
  LogSoftmax ls;
  const Matrix x = Matrix::randn(3, 4, rng, 1.0f);
  Matrix h = x;
  const Matrix y = ls.forward(h, Pass::kEval);
  LossProbe probe(y, rng);
  const Matrix dx = input_grad(ls, probe);
  for (int i = 0; i < x.rows(); ++i)
    for (int j = 0; j < x.cols(); ++j)
      EXPECT_NEAR(dx(i, j), numeric_grad_x(ls, x, probe, i, j), 1e-2);
}

TEST(LogSoftmax, BackwardAfterInferenceThrows) {
  LogSoftmax ls;
  Matrix x = Matrix::full(2, 3, 1.0f);
  ls.forward(x, Pass::kInfer);
  Matrix g = Matrix::full(2, 3, 1.0f);
  EXPECT_THROW(ls.backward(g, true), std::logic_error);
}

TEST(Dropout, IdentityOutsideTraining) {
  util::Rng rng(4);
  Dropout drop(0.5, rng);
  const Matrix x = Matrix::randn(4, 4, rng, 1.0f);
  for (const Pass pass : {Pass::kEval, Pass::kInfer}) {
    Matrix h = x;
    const Matrix& y = drop.forward(h, pass);
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) EXPECT_EQ(y(i, j), x(i, j));
    Matrix g = Matrix::full(4, 4, 3.0f);
    drop.backward(g, true);
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) EXPECT_EQ(g(i, j), 3.0f);
  }
}

TEST(Dropout, TrainingZerosAndRescales) {
  util::Rng rng(5);
  Dropout drop(0.5, rng);
  Matrix x = Matrix::full(50, 50, 1.0f);
  const Matrix& y = drop.forward(x, Pass::kTrain);
  int zeros = 0;
  double sum = 0.0;
  for (int i = 0; i < 50; ++i)
    for (int j = 0; j < 50; ++j) {
      if (y(i, j) == 0.0f)
        ++zeros;
      else
        EXPECT_NEAR(y(i, j), 2.0f, 1e-5f);  // 1/keep scaling
      sum += y(i, j);
    }
  EXPECT_NEAR(static_cast<double>(zeros) / 2500.0, 0.5, 0.05);
  EXPECT_NEAR(sum / 2500.0, 1.0, 0.1);  // expectation preserved
}

TEST(Dropout, BackwardUsesSameMask) {
  util::Rng rng(6);
  Dropout drop(0.5, rng);
  Matrix x = Matrix::full(10, 10, 1.0f);
  const Matrix y = drop.forward(x, Pass::kTrain);
  Matrix g = Matrix::full(10, 10, 1.0f);
  drop.backward(g, true);
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j) EXPECT_EQ(g(i, j), y(i, j));
}

// The rates the threshold identity is checked at: keep = 1 - rate is 0.5 or
// 0.25 (keep * 2^24 an integer), 0.7, 1 - 1e-7, 1 and 0.
const double kDropoutRates[] = {0.5, 0.75, 0.3, 1e-7, 0.0, 1.0};

TEST(Dropout, FloatThresholdMatchesNextFloatDrawForDraw) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> probs{nan, -inf, inf, -0.5f, 1.5f, 0.0f, 1.0f,
                           std::numeric_limits<float>::denorm_min()};
  for (const double rate : kDropoutRates) {
    probs.push_back(static_cast<float>(rate));
    probs.push_back(static_cast<float>(1.0 - rate));
  }
  for (const float p : probs) {
    const std::uint64_t threshold = util::Rng::float_threshold(p);
    EXPECT_LE(threshold, std::uint64_t{1} << 24) << p;
    util::Rng a(77), b(77);
    int mismatches = 0;
    for (int k = 0; k < 200000; ++k)
      mismatches += ((a.next() >> 40) < threshold) != (b.next_float() < p);
    EXPECT_EQ(mismatches, 0) << "p = " << p;
  }
  EXPECT_EQ(util::Rng::float_threshold(0.5f), std::uint64_t{1} << 23);
  EXPECT_EQ(util::Rng::float_threshold(0.25f), std::uint64_t{1} << 22);
  EXPECT_EQ(util::Rng::float_threshold(nan), 0u);
  EXPECT_EQ(util::Rng::float_threshold(inf), std::uint64_t{1} << 24);
}

TEST(Dropout, MaskMatchesNextFloatLoopDrawForDraw) {
  // The reference: one next_float() < keep draw per element, row-major.
  for (const double rate : kDropoutRates) {
    util::Rng rng(31), ref_rng(31);
    Dropout drop(rate, rng);
    util::Rng data_rng(9);
    const Matrix x = Matrix::randn(37, 29, data_rng, 1.0f);
    Matrix y = x;
    drop.forward(y, Pass::kTrain);
    Matrix mask = Matrix::full(x.rows(), x.cols(), 1.0f);
    drop.backward(mask, true);

    Matrix ref_y = x;
    Matrix ref_mask(x.rows(), x.cols());
    if (rate > 0.0) {
      const float keep = static_cast<float>(1.0 - rate);
      const float scale = 1.0f / keep;
      for (int i = 0; i < x.rows(); ++i)
        for (int j = 0; j < x.cols(); ++j) {
          if (ref_rng.next_float() < keep) {
            ref_mask(i, j) = scale;
            ref_y(i, j) *= scale;
          } else {
            ref_y(i, j) = 0.0f;
          }
        }
    } else {
      ref_mask = Matrix::full(x.rows(), x.cols(), 1.0f);  // identity
    }
    EXPECT_EQ(std::memcmp(y.data(), ref_y.data(), y.size() * sizeof(float)),
              0)
        << "rate " << rate;
    EXPECT_EQ(std::memcmp(mask.data(), ref_mask.data(),
                          mask.size() * sizeof(float)),
              0)
        << "rate " << rate;
    EXPECT_EQ(rng.next(), ref_rng.next()) << "rate " << rate;  // same draws
  }
}

TEST(Linear, ForwardAffine) {
  util::Rng rng(7);
  Linear lin(2, 3, rng);
  const Matrix x = Matrix::randn(4, 2, rng, 1.0f);
  const Matrix& y = lin.forward(x, Pass::kInfer);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Linear, InputGradientCheck) {
  util::Rng rng(8);
  Linear lin(3, 2, rng);
  const Matrix x = Matrix::randn(4, 3, rng, 1.0f);
  const Matrix y = lin.forward(x, Pass::kEval);
  LossProbe probe(y, rng);
  lin.forward(x, Pass::kEval);
  const Matrix dx = input_grad(lin, probe);
  for (int i = 0; i < x.rows(); ++i)
    for (int j = 0; j < x.cols(); ++j)
      EXPECT_NEAR(dx(i, j), numeric_grad_x(lin, x, probe, i, j), 1e-2);
}

TEST(Linear, WeightGradientCheck) {
  util::Rng rng(9);
  Linear lin(3, 2, rng);
  std::vector<Param> params;
  lin.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  Matrix& w = *params[0].value;
  Matrix& wg = *params[0].grad;

  const Matrix x = Matrix::randn(4, 3, rng, 1.0f);
  const Matrix y = lin.forward(x, Pass::kTrain);
  LossProbe probe(y, rng);
  lin.forward(x, Pass::kTrain);
  wg.set_zero();
  Matrix g = probe.weight;
  lin.backward(g, /*input_grad=*/false);

  const float eps = 1e-3f;
  for (int i = 0; i < w.rows(); ++i)
    for (int j = 0; j < w.cols(); ++j) {
      const float orig = w(i, j);
      w(i, j) = orig + eps;
      const double lp = probe.value(lin.forward(x, Pass::kInfer));
      w(i, j) = orig - eps;
      const double lm = probe.value(lin.forward(x, Pass::kInfer));
      w(i, j) = orig;
      EXPECT_NEAR(wg(i, j), (lp - lm) / (2.0 * eps), 1e-2);
    }
}

TEST(Linear, BackwardAfterInferenceThrows) {
  util::Rng rng(16);
  Linear lin(2, 2, rng);
  const Matrix x = Matrix::full(3, 2, 1.0f);
  lin.forward(x, Pass::kInfer);
  Matrix g = Matrix::full(3, 2, 1.0f);
  EXPECT_THROW(lin.backward(g, true), std::logic_error);
}

// ---- GcnConv gradient checks (the load-bearing layer) ------------------------

SparseMatrix ring_adjacency(int n) {
  // Symmetric ring with self-loops, arbitrary positive weights.
  std::vector<Coo> entries;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    entries.push_back({i, j, 0.4f});
    entries.push_back({j, i, 0.4f});
    entries.push_back({i, i, 0.6f});
  }
  return SparseMatrix::from_coo(n, n, entries);
}

TEST(GcnConv, InputGradientCheck) {
  util::Rng rng(10);
  const auto adj = ring_adjacency(5);
  GcnConv conv(3, 2, rng);
  conv.set_adjacency(&adj);
  const Matrix x = Matrix::randn(5, 3, rng, 1.0f);
  const Matrix y = conv.forward(x, Pass::kEval);
  LossProbe probe(y, rng);
  conv.forward(x, Pass::kEval);
  const Matrix dx = input_grad(conv, probe);
  for (int i = 0; i < x.rows(); ++i)
    for (int j = 0; j < x.cols(); ++j)
      EXPECT_NEAR(dx(i, j), numeric_grad_x(conv, x, probe, i, j), 1e-2);
}

TEST(GcnConv, WeightAndBiasGradientCheck) {
  util::Rng rng(11);
  const auto adj = ring_adjacency(4);
  GcnConv conv(2, 3, rng);
  conv.set_adjacency(&adj);
  std::vector<Param> params;
  conv.collect_params(params);
  const Matrix x = Matrix::randn(4, 2, rng, 1.0f);
  const Matrix y = conv.forward(x, Pass::kTrain);
  LossProbe probe(y, rng);

  for (const Param& p : params) {
    conv.forward(x, Pass::kTrain);
    p.grad->set_zero();
    Matrix g = probe.weight;
    conv.backward(g, /*input_grad=*/false);
    const float eps = 1e-3f;
    for (int i = 0; i < p.value->rows(); ++i)
      for (int j = 0; j < p.value->cols(); ++j) {
        const float orig = (*p.value)(i, j);
        (*p.value)(i, j) = orig + eps;
        const double lp = probe.value(conv.forward(x, Pass::kInfer));
        (*p.value)(i, j) = orig - eps;
        const double lm = probe.value(conv.forward(x, Pass::kInfer));
        (*p.value)(i, j) = orig;
        EXPECT_NEAR((*p.grad)(i, j), (lp - lm) / (2.0 * eps), 1e-2);
      }
  }
}

TEST(GcnConv, EdgeGradientCheck) {
  util::Rng rng(12);
  auto adj = ring_adjacency(4);
  GcnConv conv(2, 2, rng);
  conv.set_adjacency(&adj);
  const Matrix x = Matrix::randn(4, 2, rng, 1.0f);
  const Matrix y = conv.forward(x, Pass::kEval);
  LossProbe probe(y, rng);

  std::vector<float> edge_grad(adj.nnz(), 0.0f);
  conv.set_edge_grad_buffer(&edge_grad);
  conv.forward(x, Pass::kEval);
  input_grad(conv, probe);
  conv.set_edge_grad_buffer(nullptr);

  const float eps = 1e-3f;
  for (std::size_t k = 0; k < adj.nnz(); ++k) {
    auto vals = adj.values();
    vals[k] += eps;
    const auto adj_p = adj.with_values(vals);
    conv.set_adjacency(&adj_p);
    const double lp = probe.value(conv.forward(x, Pass::kInfer));
    vals[k] -= 2 * eps;
    const auto adj_m = adj.with_values(vals);
    conv.set_adjacency(&adj_m);
    const double lm = probe.value(conv.forward(x, Pass::kInfer));
    conv.set_adjacency(&adj);
    EXPECT_NEAR(edge_grad[k], (lp - lm) / (2.0 * eps), 1e-2) << "entry " << k;
  }
}

TEST(GcnConv, WithoutBiasHasSingleParam) {
  util::Rng rng(15);
  GcnConv conv(3, 2, rng, /*with_bias=*/false);
  std::vector<Param> params;
  conv.collect_params(params);
  EXPECT_EQ(params.size(), 1u);
  // Zero input -> zero output without a bias.
  const auto adj = ring_adjacency(3);
  conv.set_adjacency(&adj);
  const Matrix zero(3, 3);
  const Matrix& y = conv.forward(zero, Pass::kInfer);
  EXPECT_EQ(y.frob2(), 0.0);
}

TEST(GcnConv, RequiresAdjacency) {
  util::Rng rng(13);
  GcnConv conv(2, 2, rng);
  const Matrix x = Matrix::full(3, 2, 1.0f);
  EXPECT_THROW(conv.forward(x, Pass::kInfer), std::runtime_error);
}

TEST(GcnConv, FeatureDimMismatchThrows) {
  util::Rng rng(14);
  const auto adj = ring_adjacency(3);
  GcnConv conv(2, 2, rng);
  conv.set_adjacency(&adj);
  const Matrix x = Matrix::full(3, 5, 1.0f);
  EXPECT_THROW(conv.forward(x, Pass::kInfer), std::runtime_error);
}

TEST(GcnConv, BackwardAfterInferenceOrReleaseThrows) {
  util::Rng rng(17);
  const auto adj = ring_adjacency(3);
  GcnConv conv(2, 2, rng);
  conv.set_adjacency(&adj);
  const Matrix x = Matrix::full(3, 2, 1.0f);
  Matrix g = Matrix::full(3, 2, 1.0f);
  conv.forward(x, Pass::kInfer);
  EXPECT_THROW(conv.backward(g, true), std::logic_error);
  conv.forward(x, Pass::kTrain);
  conv.release();
  EXPECT_THROW(conv.backward(g, true), std::logic_error);
}

// ---- losses -------------------------------------------------------------------

TEST(MaskedNll, ValueAndGradient) {
  Matrix logp(3, 2);
  logp(0, 0) = std::log(0.8f);
  logp(0, 1) = std::log(0.2f);
  logp(1, 0) = std::log(0.3f);
  logp(1, 1) = std::log(0.7f);
  logp(2, 0) = std::log(0.5f);
  logp(2, 1) = std::log(0.5f);
  const std::vector<int> labels{0, 1, 1};
  const std::vector<int> mask{0, 1};
  Matrix grad;
  const double loss = masked_nll(logp, labels, mask, grad);
  EXPECT_NEAR(loss, -(std::log(0.8) + std::log(0.7)) / 2.0, 1e-5);
  EXPECT_NEAR(grad(0, 0), -0.5f, 1e-6f);
  EXPECT_EQ(grad(0, 1), 0.0f);
  EXPECT_NEAR(grad(1, 1), -0.5f, 1e-6f);
  EXPECT_EQ(grad(2, 0), 0.0f);  // outside mask
  EXPECT_EQ(grad(2, 1), 0.0f);
}

TEST(MaskedNll, EmptyMaskThrows) {
  Matrix logp(1, 2);
  Matrix grad;
  EXPECT_THROW(masked_nll(logp, {0}, {}, grad), std::runtime_error);
}

TEST(MaskedMse, ValueAndGradient) {
  Matrix pred(3, 1);
  pred(0, 0) = 0.5f;
  pred(1, 0) = 1.0f;
  pred(2, 0) = 0.0f;
  const std::vector<double> target{0.0, 1.0, 0.7};
  const std::vector<int> mask{0, 1};
  Matrix grad;
  const double loss = masked_mse(pred, target, mask, grad);
  EXPECT_NEAR(loss, (0.25 + 0.0) / 2.0, 1e-6);
  EXPECT_NEAR(grad(0, 0), 0.5f, 1e-5f);  // 2*(0.5-0)/2
  EXPECT_NEAR(grad(1, 0), 0.0f, 1e-5f);
  EXPECT_EQ(grad(2, 0), 0.0f);
}

TEST(MaskedMse, RequiresSingleColumn) {
  Matrix pred(2, 2);
  Matrix grad;
  EXPECT_THROW(masked_mse(pred, {0.0, 0.0}, {0}, grad), std::runtime_error);
}

}  // namespace
}  // namespace fcrit::ml
