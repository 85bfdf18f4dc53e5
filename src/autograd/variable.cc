#include "src/autograd/variable.h"

#include <unordered_set>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/tensor/ops.h"
#include "src/tensor/workspace.h"

namespace dyhsl::autograd {

void Node::AccumulateGrad(const tensor::Tensor& g) {
  DYHSL_CHECK_MSG(g.shape() == value.shape(),
                  "gradient shape " + tensor::ShapeToString(g.shape()) +
                      " != value shape " +
                      tensor::ShapeToString(value.shape()));
  if (!grad.defined()) {
    if (parents.empty()) {
      // Leaf (parameter) gradients survive past the training step — keep
      // them on the heap so they never pin a step-scoped workspace slab.
      tensor::WorkspaceBypass bypass;
      grad = g.Clone();
    } else {
      grad = g.Clone();
    }
  } else {
    tensor::AddInPlace(&grad, g);
  }
}

namespace internal {

float EnsureGradBeta(Node* node) {
  if (!node->grad.defined()) {
    if (node->parents.empty()) {
      // Leaf (parameter) gradients outlive the step: heap, not arena
      // (see Node::AccumulateGrad for the same rule).
      tensor::WorkspaceBypass bypass;
      node->grad = tensor::Tensor(node->value.shape());
    } else {
      node->grad = tensor::Tensor(node->value.shape());
    }
    return 0.0f;
  }
  return 1.0f;
}

}  // namespace internal

Variable::Variable(tensor::Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

void Variable::ZeroGrad() {
  if (node_ != nullptr && node_->grad.defined()) node_->grad.Fill(0.0f);
}

namespace {

// Iterative post-order DFS over parent edges -> topological order
// (parents before children in `order`).
void TopoSort(const std::shared_ptr<Node>& root,
              std::vector<Node*>* order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* parent = node->parents[next_child].get();
      ++next_child;
      if (parent != nullptr && parent->requires_grad &&
          visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() const {
  DYHSL_CHECK(defined());
  DYHSL_CHECK_MSG(!InferenceModeEnabled(),
                  "Backward() inside InferenceModeGuard: no tape was built");
  DYHSL_CHECK_MSG(numel() == 1, "Backward() without seed requires a scalar");
  Backward(tensor::Tensor::Ones(node_->value.shape()));
}

void Variable::Backward(const tensor::Tensor& seed) const {
  DYHSL_CHECK(defined());
  DYHSL_CHECK_MSG(!InferenceModeEnabled(),
                  "Backward() inside InferenceModeGuard: no tape was built");
  DYHSL_CHECK_MSG(node_->requires_grad,
                  "Backward() on a variable that does not require grad");
  node_->AccumulateGrad(seed);
  std::vector<Node*> order;
  TopoSort(node_, &order);
  // `order` lists parents before children; differentiate children first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward && node->grad.defined()) {
      node->backward(node);
    }
  }
}

Variable Variable::FromNode(std::shared_ptr<Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

Variable MakeOpResult(tensor::Tensor value, std::vector<Variable> parents,
                      std::function<void(Node*)> backward) {
  // Grad-free inference: the result is a plain leaf carrying only the
  // value. No parent edges or backward closure means the input tensors
  // are released as soon as the caller drops its Variables, instead of
  // being pinned until the whole tape dies.
  if (InferenceModeEnabled()) {
    return Variable(std::move(value), /*requires_grad=*/false);
  }
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  bool needs_grad = false;
  for (const Variable& p : parents) {
    if (p.defined() && p.requires_grad()) {
      needs_grad = true;
      break;
    }
  }
  node->requires_grad = needs_grad;
  if (needs_grad) {
    node->parents.reserve(parents.size());
    for (const Variable& p : parents) node->parents.push_back(p.node());
    node->backward = std::move(backward);
  }
  return Variable::FromNode(std::move(node));
}

}  // namespace dyhsl::autograd
