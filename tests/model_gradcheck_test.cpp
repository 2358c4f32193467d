// End-to-end numeric gradient checks of the full GCN: the analytic
// backward pass through every architecture variant (depths, dropout off,
// classifier NLL and regressor MSE heads) must match central differences
// of the actual training loss. This pins down the exact math the trainer
// optimizes, beyond the per-layer checks in layers_test.
#include <gtest/gtest.h>

#include <cmath>

#include "src/ml/gcn.hpp"

namespace fcrit::ml {
namespace {

SparseMatrix ring(int n) {
  std::vector<Coo> entries;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    entries.push_back({i, j, 0.35f});
    entries.push_back({j, i, 0.35f});
    entries.push_back({i, i, 0.3f});
  }
  return SparseMatrix::from_coo(n, n, entries);
}

struct Case {
  std::vector<int> hidden;
  bool regressor;
  const char* name;
};

class GradCheck : public ::testing::TestWithParam<Case> {};

TEST_P(GradCheck, AnalyticMatchesNumeric) {
  const Case& c = GetParam();
  const int n = 6, f = 3;
  const auto adj = ring(n);

  GcnConfig cfg = c.regressor ? GcnConfig::regressor()
                              : GcnConfig::classifier();
  cfg.hidden = c.hidden;
  cfg.dropout = 0.0;  // dropout is stochastic; excluded from grad checks
  cfg.seed = 11;
  GcnModel model(f, cfg);
  model.set_adjacency(&adj);

  util::Rng rng(5);
  const Matrix x = Matrix::randn(n, f, rng, 1.0f);
  std::vector<int> labels(static_cast<std::size_t>(n));
  std::vector<double> targets(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = i % 2;
    targets[static_cast<std::size_t>(i)] = 0.1 + 0.15 * i;
  }
  const std::vector<int> mask{0, 2, 3, 5};

  auto loss_fn = [&]() {
    const Matrix out = model.forward(x, false);
    Matrix grad;
    return c.regressor ? masked_mse(out, targets, mask, grad)
                       : masked_nll(out, labels, mask, grad);
  };

  // Analytic gradients, through the grad-capable evaluation pass.
  {
    const Matrix& out = model.forward(x, Pass::kEval);
    Matrix grad;
    if (c.regressor)
      masked_mse(out, targets, mask, grad);
    else
      masked_nll(out, labels, mask, grad);
    model.zero_grad();
    model.backward(grad);
  }

  // Numeric verification of a deterministic sample of parameter entries.
  const float eps = 2e-3f;
  for (const Param& p : model.params()) {
    const int stride =
        std::max(1, static_cast<int>(p.value->size()) / 7);
    int checked = 0;
    for (int idx = 0; idx < static_cast<int>(p.value->size());
         idx += stride) {
      const int i = idx / p.value->cols();
      const int j = idx % p.value->cols();
      const float orig = (*p.value)(i, j);
      (*p.value)(i, j) = orig + eps;
      const double lp = loss_fn();
      (*p.value)(i, j) = orig - eps;
      const double lm = loss_fn();
      (*p.value)(i, j) = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR((*p.grad)(i, j), numeric,
                  2e-2 * std::max(1.0, std::abs(numeric)))
          << c.name << " param " << p.value->shape_string() << " (" << i
          << "," << j << ")";
      ++checked;
    }
    EXPECT_GT(checked, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradCheck,
    ::testing::Values(Case{{8}, false, "shallow_classifier"},
                      Case{{8, 8}, false, "two_layer_classifier"},
                      Case{{16, 32, 64}, false, "table1_classifier"},
                      Case{{8}, true, "shallow_regressor"},
                      Case{{16, 32, 64}, true, "table1_regressor"}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace fcrit::ml
