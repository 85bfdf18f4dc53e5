#include "src/nn/init.h"

#include <cmath>

namespace dyhsl::nn {

tensor::Tensor GlorotUniform(tensor::Shape shape, int64_t fan_in,
                             int64_t fan_out, Rng* rng) {
  float a = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return tensor::Tensor::Uniform(std::move(shape), rng, -a, a);
}

tensor::Tensor GlorotUniform2D(int64_t fan_in, int64_t fan_out, Rng* rng) {
  return GlorotUniform({fan_in, fan_out}, fan_in, fan_out, rng);
}

}  // namespace dyhsl::nn
