// The Adam optimizer over Variable parameters, and gradient clipping.

#ifndef DYHSL_OPTIM_OPTIMIZER_H_
#define DYHSL_OPTIM_OPTIMIZER_H_

#include <vector>

#include "src/autograd/variable.h"

namespace dyhsl::optim {

using autograd::Variable;

/// \brief Adam (Kingma & Ba, 2014) with optional decoupled weight decay,
/// the one optimizer: the paper trains DyHSL with Adam at lr 1e-3.
/// Parameters whose gradient is undefined at Step() time are skipped
/// (e.g. unused branches).
class Adam {
 public:
  Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  /// \brief Applies one update using the gradients currently stored.
  void Step();

  /// \brief Clears all parameter gradients.
  void ZeroGrad();

  const std::vector<Variable>& params() const { return params_; }

 private:
  std::vector<Variable> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

/// \brief Scales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<Variable>& params, float max_norm);

}  // namespace dyhsl::optim

#endif  // DYHSL_OPTIM_OPTIMIZER_H_
