// Elementwise transcendental kernels over float arrays: the tensor-level
// entry points for tanh, sigmoid and exp.
//
// Each call splits the array into fixed-size blocks (OpenMP-parallel above
// a size cutoff) and runs the runtime-dispatched kernel of src/tensor/simd.h
// on each block. That kernel rounds every element the same way wherever it
// sits — vector body or masked tail, any offset, any ISA level — so an
// element's result depends only on its value: not on the array length, the
// thread partition or whether the call is out-of-place, in-place or the
// GEMM epilogue's tanh gate. Batched and unbatched forwards therefore agree
// bit for bit.

#ifndef DYHSL_TENSOR_VECMATH_H_
#define DYHSL_TENSOR_VECMATH_H_

#include <cstdint>

namespace dyhsl::tensor {

/// \brief out[i] = tanh(in[i]). `out` may equal `in`.
void TanhArray(const float* in, float* out, int64_t n);

/// \brief out[i] = 1 / (1 + exp(-in[i])). `out` may equal `in`.
void SigmoidArray(const float* in, float* out, int64_t n);

/// \brief out[i] = exp(in[i]). `out` may equal `in`.
void ExpArray(const float* in, float* out, int64_t n);

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_VECMATH_H_
