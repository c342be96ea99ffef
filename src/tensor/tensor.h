// Minimal dense float tensor with reverse-mode automatic differentiation.
//
// This is the numeric substrate for the "real computation" plane of
// HybridFlow-CPP: the tiny actor/critic/reference/reward networks that the
// RLHF dataflows actually train. It supports 1-D and 2-D tensors, the op
// set needed for policy-gradient losses (see src/tensor/ops.h), and a
// topological-sort backward pass.
//
// Ownership: Tensor is a cheap value handle onto a shared graph node. The
// autograd graph is a DAG of shared_ptrs that is released when the last
// Tensor referencing it goes away.
#ifndef SRC_TENSOR_TENSOR_H_
#define SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace hybridflow {

struct TensorNode;
using TensorNodePtr = std::shared_ptr<TensorNode>;

struct TensorNode {
  std::vector<int64_t> shape;
  std::vector<float> data;
  std::vector<float> grad;  // Allocated lazily on backward.
  bool requires_grad = false;
  std::vector<TensorNodePtr> parents;
  // Propagates this node's grad into its parents' grads.
  std::function<void(TensorNode&)> backward;

  int64_t size() const {
    int64_t n = 1;
    for (int64_t dim : shape) {
      n *= dim;
    }
    return n;
  }
  void EnsureGrad() {
    if (grad.size() != data.size()) {
      grad.assign(data.size(), 0.0f);
    }
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorNodePtr node) : node_(std::move(node)) {}

  // --- Factories ------------------------------------------------------------
  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);
  static Tensor Full(std::vector<int64_t> shape, float value, bool requires_grad = false);
  static Tensor FromData(std::vector<int64_t> shape, std::vector<float> data,
                         bool requires_grad = false);
  // Gaussian init (used for network parameters).
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng, float stddev,
                      bool requires_grad = true);
  static Tensor Scalar(float value, bool requires_grad = false);

  // --- Introspection ----------------------------------------------------------
  bool defined() const { return node_ != nullptr; }
  const std::vector<int64_t>& shape() const;
  int64_t dim(int index) const;
  int ndim() const { return static_cast<int>(shape().size()); }
  int64_t size() const;
  bool requires_grad() const;

  std::vector<float>& data();
  const std::vector<float>& data() const;
  const std::vector<float>& grad() const;

  // Value of a 0-d/1-element tensor.
  float item() const;
  float at(int64_t row, int64_t col) const;
  float at(int64_t index) const;

  // --- Autograd ----------------------------------------------------------------
  // Runs backward from this (scalar) tensor, accumulating grads into every
  // requires_grad leaf reachable from it.
  void Backward();
  void ZeroGrad();

  TensorNodePtr node() const { return node_; }

 private:
  TensorNodePtr node_;
};

// --- Grad mode ---------------------------------------------------------------
// Whether ops on the calling thread build an autograd graph. On by default;
// a NoGradScope turns it off for its lifetime. The mode is thread-local: a
// task a pool thread runs starts in grad mode whatever its submitter had, so
// a scope meant for pool work must be opened inside the task.
bool GradEnabled();

// RAII: ops built while the scope is open on this thread wire no graph
// (their results have no parents, no backward and requires_grad = false)
// and compute the same values, bit for bit. Scopes nest; closing one
// restores the mode it found.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool previous_;
};

namespace tensor_internal {

// A result node holding `data` under `shape`, not wired to any parent.
TensorNodePtr NewResultNode(std::vector<int64_t> shape, std::vector<float> data);
// Whether a result of `parents` joins the graph: grad mode is on and some
// parent requires grad.
bool JoinsGraph(const TensorNodePtr* parents, size_t count);
// Wires `node` to its parents (tensor.autograd_nodes_total counts it).
void Wire(TensorNode& node, std::vector<TensorNodePtr> parents,
          std::function<void(TensorNode&)> backward);

}  // namespace tensor_internal

// Builds a non-leaf result node. It joins the graph, wired to `parents`
// with `backward`, only when tensor_internal::JoinsGraph holds; otherwise
// neither the parent list nor the std::function is built.
template <typename Backward>
Tensor MakeResult(std::vector<int64_t> shape, std::vector<float> data,
                  std::initializer_list<TensorNodePtr> parents, Backward&& backward) {
  TensorNodePtr node = tensor_internal::NewResultNode(std::move(shape), std::move(data));
  if (tensor_internal::JoinsGraph(parents.begin(), parents.size())) {
    tensor_internal::Wire(*node, std::vector<TensorNodePtr>(parents),
                          std::forward<Backward>(backward));
  }
  return Tensor(std::move(node));
}

// The same for a parent count known only at run time (ConcatRows).
Tensor MakeResult(std::vector<int64_t> shape, std::vector<float> data,
                  std::vector<TensorNodePtr> parents,
                  std::function<void(TensorNode&)> backward);

}  // namespace hybridflow

#endif  // SRC_TENSOR_TENSOR_H_
