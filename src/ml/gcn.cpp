#include "src/ml/gcn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace fcrit::ml {

GcnModel::UseGuard::UseGuard(std::atomic<bool>& flag) : flag_(flag) {
  if (flag_.exchange(true, std::memory_order_acquire))
    throw std::logic_error(
        "GcnModel: concurrent forward/backward on one instance; "
        "share a model across threads through the const infer()");
}

GcnModel::UseGuard::~UseGuard() {
  flag_.store(false, std::memory_order_release);
}

GcnModel::GcnModel(int in_features, GcnConfig config)
    : in_features_(in_features), config_(std::move(config)),
      rng_(std::make_unique<util::Rng>(config_.seed)),
      in_use_(std::make_unique<std::atomic<bool>>(false)) {
  if (config_.hidden.empty())
    throw std::runtime_error("GcnModel: need at least one hidden layer");

  int width = in_features_;
  for (std::size_t k = 0; k < config_.hidden.size(); ++k) {
    auto conv = std::make_unique<GcnConv>(width, config_.hidden[k], *rng_);
    convs_.push_back(conv.get());
    layers_.push_back(std::move(conv));
    layers_.push_back(std::make_unique<Relu>());
    if (static_cast<int>(k) == config_.dropout_after &&
        config_.dropout > 0.0) {
      prefix_end_ = layers_.size();
      suffix_conv_ = convs_.size();
      layers_.push_back(std::make_unique<Dropout>(config_.dropout, *rng_));
    }
    width = config_.hidden[k];
  }
  auto head = std::make_unique<GcnConv>(width, config_.output_dim, *rng_);
  convs_.push_back(head.get());
  layers_.push_back(std::move(head));
  if (config_.log_softmax) layers_.push_back(std::make_unique<LogSoftmax>());
  if (prefix_end_ == 0) {  // no Dropout
    prefix_end_ = layers_.size();
    suffix_conv_ = convs_.size();
  }
}

void GcnModel::set_adjacency(const SparseMatrix* adj) {
  for (GcnConv* conv : convs_) conv->set_adjacency(adj);
}

void GcnModel::set_edge_grad_buffer(std::vector<float>* buf) {
  for (GcnConv* conv : convs_) conv->set_edge_grad_buffer(buf);
}

Matrix GcnModel::infer(const SparseMatrix& adj, const Matrix& x) const {
  // Dropout is the identity outside training, so the layers reduce to the
  // convs, a ReLU after each hidden one and the head's log-softmax. Each
  // conv reads `in` and leaves its output in `out`; the buffers then swap.
  Matrix z, in, out;
  for (std::size_t k = 0; k < convs_.size(); ++k) {
    convs_[k]->infer(adj, k == 0 ? x : in, z, out);
    if (k + 1 < convs_.size()) relu_in_place(out);
    std::swap(in, out);
  }
  if (config_.log_softmax) log_softmax_in_place(in);
  return in;
}

// The public passes that write the model each hold the use guard for their
// whole duration and run the unguarded helpers below.

const Matrix& GcnModel::forward(const Matrix& x, Pass pass) {
  UseGuard guard(*in_use_);
  run_prefix(x, pass);
  return run_suffix(pass);
}

Matrix GcnModel::forward(const Matrix& x, bool training) {
  return training ? forward(x, Pass::kTrain)
                  : infer(convs_.front()->adjacency(), x);
}

void GcnModel::forward_prefix(const Matrix& x, Pass pass) {
  UseGuard guard(*in_use_);
  run_prefix(x, pass);
}

const Matrix& GcnModel::forward_suffix(Pass pass) {
  UseGuard guard(*in_use_);
  return run_suffix(pass);
}

SuffixCut GcnModel::cut_suffix(const SparseMatrix& adj,
                               const std::vector<int>& rows) const {
  if (adj.rows() != adj.cols())
    throw std::invalid_argument("GcnModel::cut_suffix: Â is not square");
  for (const int r : rows)
    if (r < 0 || r >= adj.rows())
      throw std::out_of_range("GcnModel::cut_suffix: row out of range");
  SuffixCut cut{rows, std::vector<SparseMatrix>(convs_.size() - suffix_conv_)};
  const std::vector<int>& ptr = adj.row_ptr();
  const std::vector<int>& col = adj.col_index();
  const std::vector<float>& val = adj.values();
  // Back from the head: conv k outputs the rows `out`, so its input must
  // hold every column they store, numbered in ascending order — the rows
  // conv k - 1 outputs. The first conv reads the whole prefix output, so
  // its columns keep their numbers.
  std::vector<int> out = rows;
  std::vector<int> number(static_cast<std::size_t>(adj.cols()));
  for (std::size_t k = cut.adj.size(); k-- > 0;) {
    std::vector<int> in;
    if (k == 0) {
      std::iota(number.begin(), number.end(), 0);
    } else {
      std::vector<char> needed(number.size(), 0);
      for (const int r : out)
        for (int e = ptr[r]; e < ptr[r + 1]; ++e) needed[col[e]] = 1;
      for (int c = 0; c < adj.cols(); ++c) {
        if (!needed[c]) continue;
        number[c] = static_cast<int>(in.size());
        in.push_back(c);
      }
    }
    std::vector<int> cut_ptr(out.size() + 1, 0);
    for (std::size_t t = 0; t < out.size(); ++t)
      cut_ptr[t + 1] = cut_ptr[t] + ptr[out[t] + 1] - ptr[out[t]];
    std::vector<int> cut_col(static_cast<std::size_t>(cut_ptr.back()));
    std::vector<float> cut_val(cut_col.size());
    for (std::size_t t = 0; t < out.size(); ++t) {
      for (int e = ptr[out[t]], d = cut_ptr[t]; e < ptr[out[t] + 1]; ++e, ++d) {
        cut_col[d] = number[col[e]];
        cut_val[d] = val[e];
      }
    }
    cut.adj[k] = SparseMatrix::from_csr(
        static_cast<int>(out.size()),
        k == 0 ? adj.cols() : static_cast<int>(in.size()), std::move(cut_ptr),
        std::move(cut_col), std::move(cut_val));
    out = std::move(in);
  }
  return cut;
}

const Matrix& GcnModel::forward_suffix(const SuffixCut& cut) {
  UseGuard guard(*in_use_);
  if (!prefix_out_)
    throw std::logic_error(
        "GcnModel::forward_suffix: no prefix output (a training suffix "
        "consumed it)");
  if (cut.adj.size() != convs_.size() - suffix_conv_)
    throw std::logic_error(
        "GcnModel::forward_suffix: the cut is for another layer stack");
  cached_ = Pass::kInfer;
  if (cut.adj.empty()) {
    // The prefix output is the model's, log-softmax included.
    picked_.reset(static_cast<int>(cut.rows.size()), prefix_out_->cols());
    for (std::size_t t = 0; t < cut.rows.size(); ++t) {
      const auto row = prefix_out_->row(cut.rows[t]);
      std::copy(row.begin(), row.end(),
                picked_.row(static_cast<int>(t)).begin());
    }
    return picked_;
  }
  // Dropout is the identity outside training; then, as in infer(), a ReLU
  // follows each hidden conv and the head's log-softmax ends the model.
  const Matrix* h = prefix_out_;
  Matrix* y = nullptr;
  for (std::size_t k = 0; k < cut.adj.size(); ++k) {
    GcnConv* conv = convs_[suffix_conv_ + k];
    y = &conv->forward_cut(cut.adj[k], *h);
    if (conv != convs_.back()) relu_in_place(*y);
    h = y;
  }
  if (config_.log_softmax) log_softmax_in_place(*y);
  return *y;
}

void GcnModel::backward(Matrix& grad) {
  UseGuard guard(*in_use_);
  if (cached_ == Pass::kInfer)
    throw std::logic_error(
        "GcnModel::backward: the last forward pass kept no caches");
  // Every GCN layer backpropagates in place, so the gradient stays in
  // `grad` throughout; only an evaluation pass needs the first conv's dX.
  for (std::size_t i = layers_.size(); i-- > 0;)
    layers_[i]->backward(grad, i > 0 || cached_ == Pass::kEval);
}

void GcnModel::release_workspace() {
  UseGuard guard(*in_use_);
  for (const auto& layer : layers_) layer->release();
  picked_ = Matrix();
  prefix_out_ = nullptr;
  cached_ = Pass::kInfer;
}

void GcnModel::run_prefix(const Matrix& x, Pass pass) {
  // The first conv reads the caller's x; every later layer reads or
  // rewrites the output buffer of the conv before it.
  Matrix* h = &convs_.front()->forward(x, pass);
  for (std::size_t i = 1; i < prefix_end_; ++i)
    h = &layers_[i]->forward(*h, pass);
  prefix_out_ = h;
  prefix_pass_ = pass;
  cached_ = Pass::kInfer;
}

Matrix& GcnModel::run_suffix(Pass pass) {
  if (!prefix_out_)
    throw std::logic_error(
        "GcnModel::forward_suffix: no prefix output (a training suffix "
        "consumed it)");
  Matrix* h = prefix_out_;
  for (std::size_t i = prefix_end_; i < layers_.size(); ++i)
    h = &layers_[i]->forward(*h, pass);
  if (pass == Pass::kTrain && prefix_end_ < layers_.size())
    prefix_out_ = nullptr;  // the Dropout rewrote it
  cached_ = prefix_pass_ == Pass::kInfer ? Pass::kInfer : pass;
  return *h;
}

std::vector<Param> GcnModel::params() {
  std::vector<Param> out;
  for (const auto& layer : layers_) layer->collect_params(out);
  return out;
}

void GcnModel::zero_grad() {
  for (const Param& p : params()) p.grad->set_zero();
}

void GcnModel::copy_params_from(const GcnModel& other) {
  auto mine = params();
  auto theirs = const_cast<GcnModel&>(other).params();
  if (mine.size() != theirs.size())
    throw std::runtime_error("copy_params_from: architecture mismatch");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].value->rows() != theirs[i].value->rows() ||
        mine[i].value->cols() != theirs[i].value->cols())
      throw std::runtime_error("copy_params_from: shape mismatch");
    *mine[i].value = *theirs[i].value;
  }
}

std::string GcnModel::describe() const {
  std::string out;
  int idx = 1;
  for (const auto& layer : layers_) {
    out += std::to_string(idx++) + ": " + layer->describe() + "\n";
  }
  return out;
}

std::vector<int> predict_labels(const Matrix& out) {
  std::vector<int> labels(static_cast<std::size_t>(out.rows()));
  for (int i = 0; i < out.rows(); ++i) {
    const auto row = out.row(i);
    int best = 0;
    for (int j = 1; j < out.cols(); ++j)
      if (row[j] > row[best]) best = j;
    labels[static_cast<std::size_t>(i)] = best;
  }
  return labels;
}

std::vector<double> class1_probability(const Matrix& logp) {
  if (logp.cols() != 2)
    throw std::runtime_error("class1_probability: expected 2 columns");
  std::vector<double> p(static_cast<std::size_t>(logp.rows()));
  for (int i = 0; i < logp.rows(); ++i)
    p[static_cast<std::size_t>(i)] = std::exp(static_cast<double>(logp(i, 1)));
  return p;
}

}  // namespace fcrit::ml
