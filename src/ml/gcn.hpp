// The GCN classifier/regressor of §3.3-3.4.
//
// The default configuration reproduces the paper's Table 1 exactly:
//   GCNConv(F -> 16), ReLU,
//   GCNConv(16 -> 32), ReLU, Dropout(0.3),
//   GCNConv(32 -> 64), ReLU,
//   GCNConv(64 -> 2), LogSoftmax.
// The regressor variant (§3.4) removes the LogSoftmax and sets the output
// dimensionality to 1, yielding continuous criticality scores.
// A trained model scores through the const infer(), which threads may share;
// the passes that write its workspace serve one caller at a time. A
// training loop's per-epoch evaluation runs the layers after the first
// Dropout only for the rows its metric reads (cut_suffix, forward_suffix).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ml/layers.hpp"

namespace fcrit::ml {

struct GcnConfig {
  std::vector<int> hidden = {16, 32, 64};  // conv widths before the head
  int output_dim = 2;        // 2 classes, or 1 for regression
  bool log_softmax = true;   // false for the regressor
  double dropout = 0.3;
  int dropout_after = 1;     // insert Dropout after hidden conv #k (-1: none)
  std::uint64_t seed = 42;

  static GcnConfig classifier() { return {}; }
  static GcnConfig regressor() {
    GcnConfig c;
    c.output_dim = 1;
    c.log_softmax = false;
    return c;
  }
};

/// What the layers after a GcnModel's prefix need to output only some rows:
/// built once per training run by GcnModel::cut_suffix().
struct SuffixCut {
  std::vector<int> rows;  // the output rows, in the caller's order
  /// Per conv after the prefix, in order: Â's rows that conv must output,
  /// its columns numbered by the rows the conv's input holds.
  std::vector<SparseMatrix> adj;
};

class GcnModel {
 public:
  GcnModel(int in_features, GcnConfig config);

  /// Adjacency used by subsequent forward/backward calls; must outlive them.
  void set_adjacency(const SparseMatrix* adj);

  /// When non-null, every GcnConv backward accumulates its dL/dÂ into this
  /// buffer (summed across layers). GNNExplainer's edge-mask gradient.
  void set_edge_grad_buffer(std::vector<float>* buf);

  /// The N x output_dim output (log-probabilities for the classifier) of
  /// `x` over `adj`: forward(x, Pass::kInfer)'s math, kernel for kernel, in
  /// buffers allocated per call. Writes no member, so threads may share it.
  Matrix infer(const SparseMatrix& adj, const Matrix& x) const;

  /// Runs every layer in `pass` (see ml::Pass) over the model's workspace.
  /// Returns the N x output_dim output, which stays in the workspace until
  /// the next pass or release_workspace(). kTrain and kEval keep caches for
  /// backward(), including a pointer to `x`, which must stay unchanged
  /// until then. NOT safe for concurrent callers on one instance: a second
  /// thread entering while a pass is in flight gets std::logic_error
  /// instead of silently corrupted activations — share a model via infer().
  const Matrix& forward(const Matrix& x, Pass pass);

  /// With training == false, infer() over the model's adjacency. With
  /// training == true, a copy of forward(x, Pass::kTrain).
  Matrix forward(const Matrix& x, bool training);

  /// forward(x, pass) split at the first Dropout; the prefix is the whole
  /// model when there is no Dropout. The prefix (convs and ReLUs) draws
  /// nothing from the RNG, so a training loop runs it once per weight
  /// update and then both suffixes over its output: the evaluation
  /// (Pass::kInfer) and the next epoch's training (Pass::kTrain), in that
  /// order — a training suffix's Dropout overwrites the prefix output, and
  /// forward_suffix() then throws std::logic_error until the next prefix.
  void forward_prefix(const Matrix& x, Pass pass);
  const Matrix& forward_suffix(Pass pass);

  /// The cut that outputs just `rows` (any order, repeats allowed) of the
  /// model's output over `adj`. The head outputs those rows; each conv
  /// after the prefix before it outputs the Â-neighbours of the next conv's
  /// rows, ascending; the first reads the prefix output in place. Throws
  /// std::invalid_argument unless `adj` is square, and std::out_of_range
  /// for a row outside it.
  SuffixCut cut_suffix(const SparseMatrix& adj,
                       const std::vector<int>& rows) const;

  /// forward_suffix(Pass::kInfer) restricted to `cut`: row t of the result
  /// is output row cut.rows[t], with the bits the full pass gives it.
  /// Matmul rows are independent, a cut Â row sums the same stored entries
  /// in the same order, and ReLU and log-softmax work row by row. Writes
  /// into the suffix convs' own buffers and leaves the prefix output to the
  /// next suffix. With no Dropout the prefix is the whole model, and the
  /// rows are copied from its output. Throws std::logic_error when there is
  /// no prefix output or `cut` has another number of convs.
  const Matrix& forward_suffix(const SuffixCut& cut);

  /// Backpropagates dL/dY in `grad`, rewriting it in place. After a kEval
  /// pass `grad` ends as dL/dX (the explainer's feature-mask gradient);
  /// after a kTrain pass the first conv skips dL/dX and `grad` ends as
  /// dL/d(its output). Throws std::logic_error unless the last pass kept
  /// caches through the whole model. Same single-caller contract as
  /// forward().
  void backward(Matrix& grad);

  /// Frees the workspace: every activation, mask and cache.
  void release_workspace();

  std::vector<Param> params();
  void zero_grad();

  /// Deep copy of all parameter values from another model with identical
  /// architecture (early-stopping snapshot restore).
  void copy_params_from(const GcnModel& other);

  int in_features() const { return in_features_; }
  const GcnConfig& config() const { return config_; }

  /// Table-1-style architecture dump, one layer per line.
  std::string describe() const;

 private:
  // Scoped guard: flips *flag true on entry, throws std::logic_error if it
  // already was (two threads inside one model), restores on exit.
  class UseGuard {
   public:
    explicit UseGuard(std::atomic<bool>& flag);
    ~UseGuard();

   private:
    std::atomic<bool>& flag_;
  };

  void run_prefix(const Matrix& x, Pass pass);
  Matrix& run_suffix(Pass pass);

  int in_features_;
  GcnConfig config_;
  // Dropout layers keep a pointer to this Rng, so it lives on the heap to
  // stay at a stable address when the model itself is moved.
  std::unique_ptr<util::Rng> rng_;
  // The layers own the workspace: each keeps its output, mask and backward
  // buffers from pass to pass until release_workspace().
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<GcnConv*> convs_;
  std::size_t prefix_end_ = 0;      // index of the first Dropout, or size
  std::size_t suffix_conv_ = 0;     // index in convs_ of the first after it
  Matrix picked_;  // forward_suffix(cut)'s rows when the prefix is the model
  Matrix* prefix_out_ = nullptr;    // the prefix's output, until consumed
  Pass prefix_pass_ = Pass::kInfer;
  Pass cached_ = Pass::kInfer;      // whose caches backward() uses; kInfer: none
  // Heap-allocated so the implicit move ctor stays available; detects
  // concurrent forward/backward on one instance (see forward()).
  std::unique_ptr<std::atomic<bool>> in_use_;
};

/// argmax over each row; returns one class id per node.
std::vector<int> predict_labels(const Matrix& out);

/// P(class 1) per node from log-probabilities.
std::vector<double> class1_probability(const Matrix& logp);

}  // namespace fcrit::ml
