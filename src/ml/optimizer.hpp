// Adam optimizer (Kingma & Ba) with decoupled L2 weight decay.
#pragma once

#include <cmath>
#include <vector>

#include "src/ml/layers.hpp"

namespace fcrit::ml {

class Adam {
 public:
  explicit Adam(std::vector<Param> params, double lr = 1e-2,
                double weight_decay = 0.0)
      : params_(std::move(params)), lr_(lr), weight_decay_(weight_decay) {
    for (const Param& p : params_) {
      m_.emplace_back(p.value->rows(), p.value->cols());
      v_.emplace_back(p.value->rows(), p.value->cols());
    }
  }

  void zero_grad() {
    for (const Param& p : params_) p.grad->set_zero();
  }

  void step() {
    ++t_;
    const double bc1 = 1.0 - std::pow(kBeta1, t_);
    const double bc2 = 1.0 - std::pow(kBeta2, t_);
    for (std::size_t k = 0; k < params_.size(); ++k) {
      Matrix& w = *params_[k].value;
      Matrix& g = *params_[k].grad;
      Matrix& m = m_[k];
      Matrix& v = v_[k];
      float* wd = w.data();
      float* gd = g.data();
      float* md = m.data();
      float* vd = v.data();
      const std::size_t n = w.size();
      for (std::size_t i = 0; i < n; ++i) {
        double grad = gd[i] + weight_decay_ * wd[i];
        md[i] = static_cast<float>(kBeta1 * md[i] + (1.0 - kBeta1) * grad);
        vd[i] = static_cast<float>(kBeta2 * vd[i] +
                                   (1.0 - kBeta2) * grad * grad);
        const double mhat = md[i] / bc1;
        const double vhat = vd[i] / bc2;
        wd[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + kEps));
      }
    }
  }

 private:
  // Kingma & Ba's defaults.
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  std::vector<Param> params_;
  std::vector<Matrix> m_, v_;
  double lr_, weight_decay_;
  int t_ = 0;
};

}  // namespace fcrit::ml
