#include "src/ml/gcn.hpp"

#include <cmath>
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
      layers_.push_back(std::make_unique<Dropout>(config_.dropout, *rng_));
    }
    width = config_.hidden[k];
  }
  auto head = std::make_unique<GcnConv>(width, config_.output_dim, *rng_);
  convs_.push_back(head.get());
  layers_.push_back(std::move(head));
  if (config_.log_softmax) layers_.push_back(std::make_unique<LogSoftmax>());
  if (prefix_end_ == 0) prefix_end_ = layers_.size();  // no Dropout
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
