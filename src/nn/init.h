// Weight initialization schemes.

#ifndef DYHSL_NN_INIT_H_
#define DYHSL_NN_INIT_H_

#include "src/core/rng.h"
#include "src/tensor/tensor.h"

namespace dyhsl::nn {

/// \brief Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in+fan_out)).
tensor::Tensor GlorotUniform(tensor::Shape shape, int64_t fan_in,
                             int64_t fan_out, Rng* rng);

/// \brief Glorot for a 2-D weight, fans inferred from the shape.
tensor::Tensor GlorotUniform2D(int64_t fan_in, int64_t fan_out, Rng* rng);

}  // namespace dyhsl::nn

#endif  // DYHSL_NN_INIT_H_
