#include "src/tensor/vecmath.h"

#include <algorithm>

#include "src/tensor/simd.h"

namespace dyhsl::tensor {
namespace {

// Same threshold as the elementwise kernels in ops.cc.
constexpr int64_t kParallelCutoff = 1 << 15;
// Elements per parallel task: a multiple of every vector width.
constexpr int64_t kBlock = 4096;

using ArrayFn = void (*)(const float*, float*, int64_t);

void Map(ArrayFn fn, const float* in, float* out, int64_t n) {
  if (n <= kParallelCutoff) {
    fn(in, out, n);
    return;
  }
  const int64_t blocks = (n + kBlock - 1) / kBlock;
#pragma omp parallel for schedule(static)
  for (int64_t b = 0; b < blocks; ++b) {
    const int64_t lo = b * kBlock;
    fn(in + lo, out + lo, std::min(kBlock, n - lo));
  }
}

}  // namespace

void TanhArray(const float* in, float* out, int64_t n) {
  Map(simd::Active().tanh, in, out, n);
}

void SigmoidArray(const float* in, float* out, int64_t n) {
  Map(simd::Active().sigmoid, in, out, n);
}

void ExpArray(const float* in, float* out, int64_t n) {
  Map(simd::Active().exp, in, out, n);
}

}  // namespace dyhsl::tensor
