// Reverse-mode automatic differentiation.
//
// A Variable is a handle to a Node in a dynamically built computation tape.
// Ops (src/autograd/ops.h) create output nodes whose `backward` closure
// pushes gradient into the parents; Variable::Backward() runs the closures
// in reverse topological order. Nodes hold only parent edges, so the graph
// is acyclic by construction and freed automatically once the last Variable
// referencing it goes out of scope.

#ifndef DYHSL_AUTOGRAD_VARIABLE_H_
#define DYHSL_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace dyhsl::autograd {

/// \brief Internal tape node. Users interact through Variable.
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;  // lazily allocated on first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Reads this->grad and accumulates into parents; empty for leaves.
  std::function<void(Node*)> backward;

  /// \brief grad += g (allocating on first call). Shapes must match value.
  void AccumulateGrad(const tensor::Tensor& g);
};

/// \brief Differentiable tensor handle (cheap to copy, shares the node).
class Variable {
 public:
  Variable() = default;

  /// \brief Wraps a tensor as a leaf. `requires_grad` marks parameters.
  explicit Variable(tensor::Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const { return node_->value; }
  tensor::Tensor* mutable_value() { return &node_->value; }
  const tensor::Tensor& grad() const { return node_->grad; }
  bool has_grad() const { return node_->grad.defined(); }
  bool requires_grad() const { return node_ != nullptr && node_->requires_grad; }

  const tensor::Shape& shape() const { return node_->value.shape(); }
  int64_t dim() const { return node_->value.dim(); }
  int64_t size(int64_t axis) const { return node_->value.size(axis); }
  int64_t numel() const { return node_->value.numel(); }

  /// \brief Clears the accumulated gradient (keeps allocation if any).
  void ZeroGrad();

  /// \brief Runs reverse-mode differentiation from this scalar output
  /// (numel must be 1). Gradients accumulate in every reachable node that
  /// requires grad.
  void Backward() const;

  /// \brief Backward from a non-scalar output with an explicit seed.
  void Backward(const tensor::Tensor& seed) const;

  std::shared_ptr<Node> node() const { return node_; }

  /// \brief True if this Variable holds the only reference to its node —
  /// together with Tensor::UniqueStorage the precondition for the
  /// inference-mode in-place op overloads.
  bool SoleOwner() const { return node_ != nullptr && node_.use_count() == 1; }

  /// \brief Constructs a Variable from an existing node (op internals).
  static Variable FromNode(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

/// \brief Creates an op output node. `parents` are tracked and `backward`
/// attached only if some parent requires grad.
Variable MakeOpResult(tensor::Tensor value,
                      std::vector<Variable> parents,
                      std::function<void(Node*)> backward);

namespace internal {

/// \brief Ensures `node->grad` exists and returns the accumulate beta for
/// fused gradient kernels (GEMM / SpMM ...Into paths): 0 on the first touch
/// — the buffer is freshly allocated and uninitialized, the kernel must
/// overwrite — and 1 afterwards. Leaf (parameter) gradients outlive the
/// step and are kept off the workspace arena.
float EnsureGradBeta(Node* node);

}  // namespace internal

}  // namespace dyhsl::autograd

#endif  // DYHSL_AUTOGRAD_VARIABLE_H_
