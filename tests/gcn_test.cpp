#include "src/ml/gcn.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/ml/trainer.hpp"

// The heap probe reads glibc's mallinfo2, which sees nothing of the
// allocators that ASan and TSan substitute.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FCRIT_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FCRIT_SANITIZED_HEAP 1
#endif
#endif
#if defined(__GLIBC__) && !defined(FCRIT_SANITIZED_HEAP)
#include <malloc.h>
#define FCRIT_HEAP_PROBE 1
#endif

namespace fcrit::ml {
namespace {

SparseMatrix chain_adjacency(int n) {
  std::vector<Coo> entries;
  for (int i = 0; i < n; ++i) entries.push_back({i, i, 0.5f});
  for (int i = 0; i + 1 < n; ++i) {
    entries.push_back({i, i + 1, 0.5f});
    entries.push_back({i + 1, i, 0.5f});
  }
  return SparseMatrix::from_coo(n, n, entries);
}

TEST(GcnModel, Table1ArchitectureDescribe) {
  GcnModel model(5, GcnConfig::classifier());
  const std::string desc = model.describe();
  EXPECT_NE(desc.find("GCNConv(5 -> 16)"), std::string::npos);
  EXPECT_NE(desc.find("GCNConv(16 -> 32)"), std::string::npos);
  EXPECT_NE(desc.find("Dropout(0.3"), std::string::npos);
  EXPECT_NE(desc.find("GCNConv(32 -> 64)"), std::string::npos);
  EXPECT_NE(desc.find("GCNConv(64 -> 2)"), std::string::npos);
  EXPECT_NE(desc.find("LogSoftmax"), std::string::npos);
  // Dropout sits after the second conv's ReLU (Table 1 layer 5).
  const auto drop_pos = desc.find("Dropout");
  const auto conv3_pos = desc.find("GCNConv(32 -> 64)");
  EXPECT_LT(drop_pos, conv3_pos);
}

TEST(GcnModel, RegressorHasSingleOutputNoSoftmax) {
  GcnModel model(5, GcnConfig::regressor());
  const std::string desc = model.describe();
  EXPECT_NE(desc.find("GCNConv(64 -> 1)"), std::string::npos);
  EXPECT_EQ(desc.find("LogSoftmax"), std::string::npos);
}

TEST(GcnModel, ForwardShapes) {
  const auto adj = chain_adjacency(7);
  GcnModel model(4, GcnConfig::classifier());
  model.set_adjacency(&adj);
  util::Rng rng(1);
  const Matrix x = Matrix::randn(7, 4, rng, 1.0f);
  const Matrix y = model.forward(x, false);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 2);
  // Log-probabilities: rows sum to 1 in prob space.
  for (int i = 0; i < y.rows(); ++i) {
    const double p = std::exp(y(i, 0)) + std::exp(y(i, 1));
    EXPECT_NEAR(p, 1.0, 1e-5);
  }
}

TEST(GcnModel, DeterministicForSameSeed) {
  const auto adj = chain_adjacency(5);
  GcnConfig cfg = GcnConfig::classifier();
  cfg.seed = 99;
  GcnModel a(3, cfg), b(3, cfg);
  a.set_adjacency(&adj);
  b.set_adjacency(&adj);
  util::Rng rng(2);
  const Matrix x = Matrix::randn(5, 3, rng, 1.0f);
  const Matrix ya = a.forward(x, false);
  const Matrix yb = b.forward(x, false);
  for (int i = 0; i < ya.rows(); ++i)
    for (int j = 0; j < ya.cols(); ++j) EXPECT_EQ(ya(i, j), yb(i, j));
}

TEST(GcnModel, CopyParamsTransfersBehaviour) {
  const auto adj = chain_adjacency(5);
  GcnConfig c1 = GcnConfig::classifier();
  c1.seed = 1;
  GcnConfig c2 = GcnConfig::classifier();
  c2.seed = 2;
  GcnModel a(3, c1), b(3, c2);
  a.set_adjacency(&adj);
  b.set_adjacency(&adj);
  util::Rng rng(3);
  const Matrix x = Matrix::randn(5, 3, rng, 1.0f);
  b.copy_params_from(a);
  const Matrix ya = a.forward(x, false);
  const Matrix yb = b.forward(x, false);
  for (int i = 0; i < ya.rows(); ++i)
    for (int j = 0; j < ya.cols(); ++j) EXPECT_EQ(ya(i, j), yb(i, j));
}

TEST(GcnModel, ZeroGradClearsAllParams) {
  GcnModel model(3, GcnConfig::classifier());
  for (const Param& p : model.params()) p.grad->fill(1.0f);
  model.zero_grad();
  for (const Param& p : model.params()) EXPECT_EQ(p.grad->frob2(), 0.0);
}

TEST(GcnModel, ParamCountMatchesArchitecture) {
  // 4 convs x (W + b) = 8 params for the default config.
  GcnModel model(5, GcnConfig::classifier());
  EXPECT_EQ(model.params().size(), 8u);
}

TEST(GcnModel, EmptyHiddenRejected) {
  GcnConfig cfg;
  cfg.hidden.clear();
  EXPECT_THROW(GcnModel(3, cfg), std::runtime_error);
}

TEST(PredictHelpers, LabelsAndProbabilities) {
  Matrix out(2, 2);
  out(0, 0) = std::log(0.9f);
  out(0, 1) = std::log(0.1f);
  out(1, 0) = std::log(0.2f);
  out(1, 1) = std::log(0.8f);
  EXPECT_EQ(predict_labels(out), (std::vector<int>{0, 1}));
  const auto p1 = class1_probability(out);
  EXPECT_NEAR(p1[0], 0.1, 1e-6);
  EXPECT_NEAR(p1[1], 0.8, 1e-6);
}

TEST(GcnModel, LearnsNeighborhoodMajorityTask) {
  // Two communities on a chain: nodes 0-9 labeled 0, nodes 10-19 labeled 1.
  // Features are pure noise except a weak signal on a few seed nodes; the
  // GCN must propagate neighborhood information to classify the rest.
  const int n = 20;
  const auto adj = chain_adjacency(n);
  util::Rng rng(4);
  Matrix x = Matrix::randn(n, 3, rng, 0.1f);
  // Strong signal at nodes 2, 5, 12, 17.
  for (const int s : {2, 5}) x(s, 0) = -2.0f;
  for (const int s : {12, 17}) x(s, 0) = 2.0f;
  std::vector<int> labels(n, 0);
  for (int i = 10; i < n; ++i) labels[static_cast<std::size_t>(i)] = 1;
  std::vector<int> train{0, 2, 4, 5, 7, 9, 10, 12, 14, 15, 17, 19};
  std::vector<int> val{1, 3, 6, 8, 11, 13, 16, 18};

  GcnConfig cfg = GcnConfig::classifier();
  cfg.hidden = {8, 8};
  cfg.dropout = 0.0;
  GcnModel model(3, cfg);
  TrainConfig tc;
  tc.epochs = 300;
  tc.patience = 0;
  const auto h = train_classifier(model, adj, x, labels, train, val, tc);
  EXPECT_GE(h.best_val_metric, 0.85);
}

TEST(GcnModel, MoveKeepsDropoutRngValid) {
  // Regression: the model's Dropout layers hold a pointer to its Rng. When
  // that Rng was a direct member, moving the model left the pointer aimed
  // at the moved-from object — a dangling read once the source died. The
  // Rng now lives on the heap (stable address across moves), so a moved
  // model must survive a TRAINING forward (the only path that draws from
  // the Rng) after its source is destroyed. ASan would flag the old bug.
  const auto adj = chain_adjacency(6);
  auto source = std::make_unique<GcnModel>(3, GcnConfig::classifier());
  GcnModel moved = std::move(*source);
  source.reset();  // the old Rng storage is gone

  moved.set_adjacency(&adj);
  util::Rng rng(9);
  const Matrix x = Matrix::randn(6, 3, rng, 1.0f);
  const Matrix y = moved.forward(x, /*training=*/true);
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 2);
  for (int i = 0; i < y.rows(); ++i)
    for (int j = 0; j < y.cols(); ++j)
      EXPECT_TRUE(std::isfinite(y(i, j)));
}

::testing::AssertionResult same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return ::testing::AssertionFailure() << "shape";
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "bits differ";
  return ::testing::AssertionSuccess();
}

TEST(GcnModel, PrefixSuffixScheduleMatchesPlainForwardBitwise) {
  // The trainer's schedule — one prefix, an evaluation suffix, then a
  // training suffix — must reproduce two plain forwards bit for bit, and
  // draw the same dropout masks.
  const int n = 40;
  const auto adj = chain_adjacency(n);
  util::Rng rng(21);
  const Matrix x = Matrix::randn(n, 5, rng, 1.0f);
  for (const int dropout_after : {-1, 0, 1, 2}) {
    GcnConfig cfg = GcnConfig::classifier();
    cfg.dropout_after = dropout_after;
    GcnModel plain(5, cfg), split(5, cfg);
    plain.set_adjacency(&adj);
    split.set_adjacency(&adj);

    const Matrix eval = plain.forward(x, /*training=*/false);
    const Matrix train = plain.forward(x, /*training=*/true);
    split.forward_prefix(x, Pass::kTrain);
    const Matrix split_eval = split.forward_suffix(Pass::kInfer);
    const Matrix split_train = split.forward_suffix(Pass::kTrain);
    EXPECT_TRUE(same_bits(split_eval, eval)) << dropout_after;
    EXPECT_TRUE(same_bits(split_train, train)) << dropout_after;

    // A training suffix's Dropout consumes the prefix output.
    if (dropout_after >= 0)
      EXPECT_THROW(split.forward_suffix(Pass::kInfer), std::logic_error);
    else
      EXPECT_NO_THROW(split.forward_suffix(Pass::kInfer));
  }
}

/// A symmetric normalized-style adjacency over n >= 31 nodes — self-loops,
/// a chain and seeded chords — in which some stored entries hold +0 and
/// some -0 (built from CSR, since from_coo would sum a lone -0 to +0).
SparseMatrix adjacency_with_signed_zeros(int n) {
  util::Rng rng(31);
  const auto size = static_cast<std::size_t>(n);
  std::vector<std::vector<float>> dense(size, std::vector<float>(size));
  std::vector<std::vector<char>> stored(size, std::vector<char>(size));
  const auto link = [&](int a, int b, float w) {
    dense[a][b] = dense[b][a] = w;
    stored[a][b] = stored[b][a] = 1;
  };
  for (int i = 0; i < n; ++i) link(i, i, 0.5f);
  for (int i = 0; i + 1 < n; ++i) link(i, i + 1, 0.25f);
  for (int k = 0; k < n / 2; ++k) {
    const int a = static_cast<int>(rng.next_below(static_cast<unsigned>(n)));
    const int b = static_cast<int>(rng.next_below(static_cast<unsigned>(n)));
    link(a, b, 0.125f + 0.0625f * static_cast<float>(k % 5));
  }
  link(3, 9, 0.0f);
  link(12, 30, -0.0f);
  link(5, 6, -0.0f);
  std::vector<int> ptr{0}, col;
  std::vector<float> val;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (!stored[r][c]) continue;
      col.push_back(c);
      val.push_back(dense[r][c]);
    }
    ptr.push_back(static_cast<int>(col.size()));
  }
  return SparseMatrix::from_csr(n, n, std::move(ptr), std::move(col),
                                std::move(val));
}

TEST(GcnModel, CutSuffixGivesTheInferenceSuffixRowsBitwise) {
  // The evaluation a training loop runs each epoch: for every layer stack
  // the config allows, classifier and regressor, forward_suffix(cut) must
  // give exactly the rows forward_suffix(Pass::kInfer) gives, for
  // validation rows out of order (one repeated) over an adjacency with
  // stored ±0 entries. A model without Dropout is all prefix: its rows
  // come straight from the log-softmaxed output, so a second log-softmax
  // fails here.
  const int n = 48;
  const SparseMatrix adj = adjacency_with_signed_zeros(n);
  util::Rng rng(23);
  const Matrix x = Matrix::randn(n, 5, rng, 1.0f);
  const std::vector<int> val = {41, 3, 17, 29, 3, 8, 46, 22, 0, 35, 12};
  struct Shape {
    const char* name;
    std::vector<int> hidden;
    int dropout_after;
    std::size_t cut_convs;
  };
  const Shape shapes[] = {{"table1", {16, 32, 64}, 1, 2},
                          {"no_dropout", {16, 32, 64}, -1, 0},
                          {"dropout_after_0", {16, 32, 64}, 0, 3},
                          {"dropout_after_2", {16, 32, 64}, 2, 1},
                          {"single_hidden", {8}, 1, 0},
                          {"single_hidden_dropout", {8}, 0, 1}};
  for (const Shape& shape : shapes) {
    for (const bool regressor : {false, true}) {
      GcnConfig cfg =
          regressor ? GcnConfig::regressor() : GcnConfig::classifier();
      cfg.hidden = shape.hidden;
      cfg.dropout_after = shape.dropout_after;
      GcnModel model(5, cfg);
      model.set_adjacency(&adj);
      const SuffixCut cut = model.cut_suffix(adj, val);
      ASSERT_EQ(cut.adj.size(), shape.cut_convs) << shape.name;
      if (!cut.adj.empty()) {
        EXPECT_EQ(cut.adj.front().cols(), n) << "reads the prefix in place";
        EXPECT_EQ(cut.adj.back().rows(), static_cast<int>(val.size()));
      }

      model.forward_prefix(x, Pass::kTrain);
      const Matrix full = model.forward_suffix(Pass::kInfer);
      const Matrix rows = model.forward_suffix(cut);
      ASSERT_EQ(rows.rows(), static_cast<int>(val.size())) << shape.name;
      ASSERT_EQ(rows.cols(), cfg.output_dim) << shape.name;
      for (std::size_t t = 0; t < val.size(); ++t)
        EXPECT_EQ(std::memcmp(rows.row(static_cast<int>(t)).data(),
                              full.row(val[t]).data(),
                              sizeof(float) * static_cast<std::size_t>(
                                                  cfg.output_dim)),
                  0)
            << shape.name << (regressor ? " regressor" : " classifier")
            << " row " << val[t];

      // Like an inference suffix, the cut keeps no caches, and it leaves
      // the prefix output to the next training suffix.
      Matrix grad(n, cfg.output_dim);
      EXPECT_THROW(model.backward(grad), std::logic_error) << shape.name;
      EXPECT_NO_THROW(model.forward_suffix(Pass::kTrain)) << shape.name;
      EXPECT_NO_THROW(model.backward(grad)) << shape.name;
    }
  }
}

TEST(GcnModel, CutSuffixOfNoRowsOutputsNothing) {
  const int n = 48;
  const SparseMatrix adj = adjacency_with_signed_zeros(n);
  util::Rng rng(24);
  const Matrix x = Matrix::randn(n, 5, rng, 1.0f);
  GcnModel model(5, GcnConfig::classifier());
  model.set_adjacency(&adj);
  const SuffixCut cut = model.cut_suffix(adj, {});
  model.forward_prefix(x, Pass::kTrain);
  const Matrix& rows = model.forward_suffix(cut);
  EXPECT_EQ(rows.rows(), 0);
  EXPECT_EQ(rows.cols(), 2);
  EXPECT_THROW(model.cut_suffix(adj, {n}), std::out_of_range);
  GcnConfig other = GcnConfig::classifier();
  other.dropout_after = 0;
  EXPECT_THROW(model.forward_suffix(GcnModel(5, other).cut_suffix(adj, {1})),
               std::logic_error);
}

TEST(GcnModel, InferMatchesCachingPassesBitwise) {
  // infer() is the inference math of the layer-by-layer passes: the
  // grad-capable evaluation pass and the trainer's prefix + inference
  // suffix schedule give the same bits, with the Dropout anywhere or
  // nowhere, for the classifier and the regressor.
  const int n = 40;
  const auto adj = chain_adjacency(n);
  util::Rng rng(22);
  const Matrix x = Matrix::randn(n, 5, rng, 1.0f);
  for (const bool regressor : {false, true}) {
    for (const int dropout_after : {-1, 0, 1, 2}) {
      GcnConfig cfg =
          regressor ? GcnConfig::regressor() : GcnConfig::classifier();
      cfg.dropout_after = dropout_after;
      GcnModel model(5, cfg);
      model.set_adjacency(&adj);
      const Matrix inferred = std::as_const(model).infer(adj, x);
      ASSERT_EQ(inferred.rows(), n);
      ASSERT_EQ(inferred.cols(), cfg.output_dim);
      EXPECT_TRUE(same_bits(model.forward(x, Pass::kEval), inferred))
          << regressor << " " << dropout_after;
      model.forward_prefix(x, Pass::kTrain);
      EXPECT_TRUE(same_bits(model.forward_suffix(Pass::kInfer), inferred))
          << regressor << " " << dropout_after;
      EXPECT_TRUE(same_bits(model.forward(x, false), inferred))
          << regressor << " " << dropout_after;
    }
  }
}

TEST(GcnModel, EvalPassBackwardYieldsInputGradient) {
  // dL/dX from the grad-capable evaluation pass against central
  // differences of the inference pass, L = sum of output * weight.
  const int n = 6;
  const auto adj = chain_adjacency(n);
  GcnConfig cfg = GcnConfig::regressor();
  cfg.hidden = {8, 8};
  GcnModel model(3, cfg);
  model.set_adjacency(&adj);
  util::Rng rng(4);
  const Matrix x = Matrix::randn(n, 3, rng, 1.0f);
  const Matrix weight = Matrix::randn(n, 1, rng, 1.0f);
  auto loss = [&](const Matrix& in) {
    const Matrix y = model.forward(in, false);
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += double(weight(i, 0)) * y(i, 0);
    return s;
  };
  model.forward(x, Pass::kEval);
  Matrix grad = weight;
  model.backward(grad);
  ASSERT_EQ(grad.rows(), n);
  ASSERT_EQ(grad.cols(), 3);
  const float eps = 1e-3f;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < 3; ++j) {
      Matrix xp = x, xm = x;
      xp(i, j) += eps;
      xm(i, j) -= eps;
      EXPECT_NEAR(grad(i, j), (loss(xp) - loss(xm)) / (2.0 * eps), 1e-2)
          << i << "," << j;
    }
}

TEST(GcnModel, ReleaseWorkspaceFreesEveryBuffer) {
#ifndef FCRIT_HEAP_PROBE
  GTEST_SKIP() << "the heap probe needs glibc's allocator, unsanitized";
#else
  // Every conv's output, pre-propagation and gradient buffers go back to
  // the allocator, not just the last one assigned.
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  const int n = 5000;
  const auto adj = chain_adjacency(n);
  GcnModel model(5, GcnConfig::classifier());
  model.set_adjacency(&adj);
  util::Rng rng(11);
  const Matrix x = Matrix::randn(n, 5, rng, 1.0f);
  const double before = heap_in_use();
  model.forward(x, Pass::kEval);
  const double during = heap_in_use();
  model.release_workspace();
  const double after = heap_in_use();
  EXPECT_GT(during - before, 4e6) << "the pass should cache its activations";
  EXPECT_NEAR(after, before, 1e6) << "during the pass: " << during - before;
#endif
}

TEST(GcnModel, ConcurrentInferOnOneModelIsBitwiseStable) {
  // One const model shared by several threads, as scoring workers share a
  // bundle's: infer() writes nothing, so every call succeeds and returns
  // the serial result bit for bit.
  const int n = 300;
  const auto adj = chain_adjacency(n);
  const GcnModel model(4, GcnConfig::classifier());
  util::Rng rng(5);
  const Matrix x = Matrix::randn(n, 4, rng, 1.0f);
  const Matrix serial = model.infer(adj, x);

  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 25; ++k) {
        try {
          if (!same_bits(model.infer(adj, x), serial)) mismatches.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST(GcnModel, ConcurrentForwardOnOneInstanceIsDetected) {
  // One shared instance hammered from several threads with a pass that
  // writes its workspace: every call must either finish or throw
  // std::logic_error (the concurrent-use guard) — never race silently. At
  // least one call must succeed, and anything else is a test failure. A
  // caller reads nothing the pass left in the workspace: once the pass
  // returns, another thread's pass may rewrite it.
  const int n = 64;
  const auto adj = chain_adjacency(n);
  GcnModel model(4, GcnConfig::classifier());
  model.set_adjacency(&adj);
  util::Rng rng(3);
  const Matrix x = Matrix::randn(n, 4, rng, 1.0f);

  std::atomic<int> ok{0}, guarded{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 25; ++k) {
        try {
          model.forward(x, Pass::kEval);
          ok.fetch_add(1);
        } catch (const std::logic_error&) {
          guarded.fetch_add(1);
        } catch (...) {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(ok.load() + guarded.load(), 100);
}

}  // namespace
}  // namespace fcrit::ml
