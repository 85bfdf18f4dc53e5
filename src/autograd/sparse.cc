#include "src/autograd/sparse.h"

#include <utility>

#include "src/core/check.h"

namespace dyhsl::autograd {

namespace T = ::dyhsl::tensor;

Variable SpMM(const SparseConstant& a, const Variable& x, bool trans_a) {
  DYHSL_CHECK(a.defined());
  const T::CsrMatrix& forward = trans_a ? a.transpose() : a.matrix();
  T::Tensor y = T::SpMM(forward, x.value());
  std::shared_ptr<T::SparseOp> op = a.op();
  return MakeOpResult(std::move(y), {x}, [op, trans_a](Node* n) {
    Node* parent = n->parents[0].get();
    if (!parent->requires_grad) return;
    const T::CsrMatrix& backward = trans_a ? op->forward : op->transpose;
    T::SpMMInto(backward, n->grad, internal::EnsureGradBeta(parent),
                &parent->grad);
  });
}

}  // namespace dyhsl::autograd
