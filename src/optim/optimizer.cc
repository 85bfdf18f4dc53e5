#include "src/optim/optimizer.h"

#include <cmath>

#include "src/core/check.h"

namespace dyhsl::optim {

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Variable& p : params_) {
    m_.push_back(tensor::Tensor::Zeros(p.shape()));
    v_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void Adam::Step() {
  ++t_;
  float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value()->data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      float grad = g[j];
      if (weight_decay_ > 0.0f) grad += weight_decay_ * w[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
      float m_hat = m[j] / bc1;
      float v_hat = v[j] / bc2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

void Adam::ZeroGrad() {
  for (Variable& p : params_) p.ZeroGrad();
}

float ClipGradNorm(const std::vector<Variable>& params, float max_norm) {
  DYHSL_CHECK_GT(max_norm, 0.0f);
  double total = 0.0;
  for (const Variable& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    for (int64_t j = 0; j < p.numel(); ++j) {
      total += static_cast<double>(g[j]) * g[j];
    }
  }
  float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    float scale = max_norm / (norm + 1e-12f);
    for (const Variable& p : params) {
      if (!p.has_grad()) continue;
      // Scaling in place through the node's grad tensor.
      const float* cg = p.grad().data();
      float* g = const_cast<float*>(cg);
      for (int64_t j = 0; j < p.numel(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace dyhsl::optim
