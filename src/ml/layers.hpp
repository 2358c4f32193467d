// Neural-network layers with explicit, in-place forward/backward passes.
//
// The stack is deliberately autograd-free: each layer keeps what its
// backward pass needs, and models chain backward() calls in reverse. No
// layer copies its input or returns a fresh matrix:
//   * GcnConv and Linear read their input where it lies and write their
//     output into a buffer of their own. A pass that keeps caches keeps a
//     pointer to the input, so the input must not change until backward()
//     has run.
//   * ReLU, Dropout and LogSoftmax rewrite their producer's output buffer in
//     place; their masks live in buffers reused from call to call.
//   * backward() turns dL/dY into dL/dX, in the gradient buffer it is given
//     (Linear, whose product cannot overwrite its operand, uses its own).
// Every buffer keeps its allocation from call to call until release().
//
// The GCNConv layer implements the Kipf-Welling propagation of Eq. 2,
//   H' = Â (H W + b),  Â = D^-1/2 (A + I) D^-1/2,
// where Â is supplied externally (see graphir::normalized_adjacency) and
// can be swapped per-forward — GNNExplainer exploits this to run the
// trained model under a masked adjacency and to collect d(loss)/d(edge).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ml/matrix.hpp"
#include "src/ml/sparse.hpp"

namespace fcrit::ml {

/// A trainable tensor and its gradient accumulator.
struct Param {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// The three forward passes.
enum class Pass {
  kTrain,  // dropout on, caches kept for backward
  kEval,   // dropout off, caches kept (a model's backward also yields dL/dX)
  kInfer,  // dropout off, no caches: backward must not follow
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// One forward step over `x`; returns where the output lives. GcnConv and
  /// Linear return a buffer of their own; ReLU, Dropout and LogSoftmax
  /// rewrite `x` and return it.
  virtual Matrix& forward(Matrix& x, Pass pass) = 0;

  /// One backward step from dL/dY in `grad`; returns where dL/dX lives:
  /// `grad` itself, rewritten, or (Linear) a buffer of the layer's own.
  /// With `input_grad` false, GcnConv and Linear skip dL/dX and return
  /// `grad` unchanged — a model's first layer after a training pass.
  /// Throws std::logic_error when the last forward kept no caches.
  virtual Matrix& backward(Matrix& grad, bool input_grad) = 0;

  /// Append this layer's trainable parameters.
  virtual void collect_params(std::vector<Param>& out) { (void)out; }

  /// Free the per-node buffers and drop the caches.
  virtual void release() = 0;

  virtual std::string describe() const = 0;
};

/// Graph convolution: Y = Â (X W + b).
class GcnConv final : public Layer {
 public:
  GcnConv(int in_features, int out_features, util::Rng& rng,
          bool with_bias = true);

  /// The adjacency used by subsequent forward/backward calls. Must outlive
  /// them. Swappable between calls (full graph vs. explainer-masked graph).
  void set_adjacency(const SparseMatrix* adj) { adj_ = adj; }
  /// That adjacency; throws std::runtime_error when none is set.
  const SparseMatrix& adjacency() const;

  /// When non-null, backward() accumulates dL/dÂ[k] for every stored entry
  /// into this buffer (resized to nnz). Used by GNNExplainer.
  void set_edge_grad_buffer(std::vector<float>* buf) { edge_grad_ = buf; }

  /// The inference step Y = Â (X W + b) into `y`, through `z` = X W + b
  /// (neither may alias `x`), reusing their allocations. Writes no member,
  /// so concurrent calls may share the layer; forward() runs it too.
  void infer(const SparseMatrix& adj, const Matrix& x, Matrix& z,
             Matrix& y) const;

  /// Y = Â (X W + b) into the layer's output buffer.
  Matrix& forward(const Matrix& x, Pass pass);
  Matrix& forward(Matrix& x, Pass pass) override {
    return forward(std::as_const(x), pass);
  }
  /// forward(x, Pass::kInfer) over `adj` in place of the layer's
  /// adjacency, into the same buffers: with Â's rows cut to some of them,
  /// the output holds just those rows.
  Matrix& forward_cut(const SparseMatrix& adj, const Matrix& x);
  Matrix& backward(Matrix& grad, bool input_grad) override;
  void collect_params(std::vector<Param>& out) override;
  void release() override;
  std::string describe() const override;

  int in_features() const { return w_.rows(); }
  int out_features() const { return w_.cols(); }
  const Matrix& weight() const { return w_; }
  Matrix& weight() { return w_; }

 private:
  Matrix w_, w_grad_;
  Matrix b_, b_grad_;  // 1 x out
  bool with_bias_;
  const SparseMatrix* adj_ = nullptr;
  std::vector<float>* edge_grad_ = nullptr;
  const Matrix* x_ = nullptr;  // input of the last caching pass
  Matrix z_;   // X W + b (pre-propagation); edge gradients read it
  Matrix y_;   // output
  Matrix gz_;  // backward: dL/dZ
  Matrix dw_;  // backward: this call's dL/dW, added into w_grad_
};

/// Dense layer: Y = X W + b (no propagation). Used by the MLP baseline.
class Linear final : public Layer {
 public:
  Linear(int in_features, int out_features, util::Rng& rng);

  /// Y = X W + b into the layer's output buffer.
  Matrix& forward(const Matrix& x, Pass pass);
  Matrix& forward(Matrix& x, Pass pass) override {
    return forward(std::as_const(x), pass);
  }
  Matrix& backward(Matrix& grad, bool input_grad) override;
  void collect_params(std::vector<Param>& out) override;
  void release() override;
  std::string describe() const override;

 private:
  Matrix w_, w_grad_;
  Matrix b_, b_grad_;
  const Matrix* x_ = nullptr;  // input of the last caching pass
  Matrix y_;   // output
  Matrix dw_;  // backward: this call's dL/dW, added into w_grad_
  Matrix dx_;  // backward: dL/dX
};

/// The forward steps of Relu (an entry not > 0 becomes +0) and LogSoftmax
/// (row-wise), in place.
void relu_in_place(Matrix& x);
void log_softmax_in_place(Matrix& x);

class Relu final : public Layer {
 public:
  Matrix& forward(Matrix& x, Pass pass) override;
  Matrix& backward(Matrix& grad, bool input_grad) override;
  void release() override { mask_ = Matrix(); }
  std::string describe() const override { return "ReLU"; }

 private:
  Matrix mask_;  // 1 where the input was > 0, else +0; empty after kInfer
};

/// Inverted dropout; identity outside a training pass.
class Dropout final : public Layer {
 public:
  Dropout(double rate, util::Rng& rng) : rate_(rate), rng_(&rng) {}

  Matrix& forward(Matrix& x, Pass pass) override;
  Matrix& backward(Matrix& grad, bool input_grad) override;
  void release() override { mask_ = Matrix(); }
  std::string describe() const override;

 private:
  double rate_;
  util::Rng* rng_;
  Matrix mask_;  // 1/keep or +0 per element; empty when nothing was dropped
};

/// Row-wise log-softmax.
class LogSoftmax final : public Layer {
 public:
  Matrix& forward(Matrix& x, Pass pass) override;
  Matrix& backward(Matrix& grad, bool input_grad) override;
  void release() override { logp_ = nullptr; }
  std::string describe() const override { return "LogSoftmax"; }

 private:
  const Matrix* logp_ = nullptr;  // output of the last caching pass
};

// ---- losses ---------------------------------------------------------------

/// Negative log-likelihood over a node subset. `logp` is N x C log-probs,
/// `labels` one class id per node. Returns the mean loss over `mask` and
/// writes dL/dlogp (zero outside the mask) into `grad`, reusing its
/// allocation.
double masked_nll(const Matrix& logp, const std::vector<int>& labels,
                  const std::vector<int>& mask, Matrix& grad);

/// Mean squared error over a node subset; `pred` is N x 1.
double masked_mse(const Matrix& pred, const std::vector<double>& target,
                  const std::vector<int>& mask, Matrix& grad);

}  // namespace fcrit::ml
