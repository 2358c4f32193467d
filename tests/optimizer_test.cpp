#include "src/ml/optimizer.hpp"

#include <gtest/gtest.h>

namespace fcrit::ml {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // f(w) = ||w - target||^2.
  Matrix w = Matrix::full(2, 2, 5.0f);
  Matrix g(2, 2);
  Matrix target(2, 2);
  target(0, 0) = 1.0f;
  target(0, 1) = -2.0f;
  target(1, 0) = 0.5f;
  target(1, 1) = 3.0f;

  Adam opt({{&w, &g}}, 0.1);
  for (int step = 0; step < 500; ++step) {
    opt.zero_grad();
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j) g(i, j) = 2.0f * (w(i, j) - target(i, j));
    opt.step();
  }
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) EXPECT_NEAR(w(i, j), target(i, j), 1e-2f);
}

TEST(Adam, WeightDecayShrinksUnusedWeights) {
  Matrix w = Matrix::full(1, 1, 1.0f);
  Matrix g(1, 1);
  Adam opt({{&w, &g}}, 0.01, /*weight_decay=*/0.5);
  for (int step = 0; step < 2000; ++step) {
    opt.zero_grad();  // zero task gradient; decay only
    opt.step();
  }
  EXPECT_NEAR(w(0, 0), 0.0f, 0.05f);
}

TEST(Adam, ZeroGradClears) {
  Matrix w(1, 1);
  Matrix g = Matrix::full(1, 1, 3.0f);
  Adam opt({{&w, &g}}, 0.1);
  opt.zero_grad();
  EXPECT_EQ(g(0, 0), 0.0f);
}

TEST(Adam, FirstStepSizeIsLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  Matrix w(1, 1);
  Matrix g = Matrix::full(1, 1, 123.0f);
  Adam opt({{&w, &g}}, 0.05);
  opt.step();
  EXPECT_NEAR(w(0, 0), -0.05f, 1e-4f);
}

}  // namespace
}  // namespace fcrit::ml
