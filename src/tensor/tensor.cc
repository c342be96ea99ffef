#include "src/tensor/tensor.h"

#include <algorithm>
#include <unordered_set>

#include "src/obs/metrics.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace hybridflow {
namespace {

#ifdef __GLIBC__
// Heap policy for data-plane tensor buffers, set once at load. A PPO
// iteration allocates ~170 buffers of 128 KiB or more (~51 MiB, mostly
// 256-512 KiB). Under glibc's defaults each one above the 128 KiB mmap
// threshold is mmap'ed and munmap'ed, and its pages faulted in again, on
// every iteration. glibc raises the threshold on its own only after a
// large mmap'ed chunk is freed, so the data plane's speed depended on
// whether something unrelated had freed one first (the auto-mapper once
// did). One 4 s ppo_dataplane process (pinned to one CPU of a 4-vCPU
// x86-64 host, getrusage of the child) took 195k-206k minor faults and
// 0.59-0.66 s of system time under the defaults, and 14.0k faults and
// 0.05-0.08 s with this policy. The values are where glibc's own dynamic
// rule ends on 64-bit: 32 MiB, and twice that for trimming. Both are set
// because setting either one turns off the dynamic adjustment of both.
struct HeapPolicy {
  HeapPolicy() {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
  }
};
const HeapPolicy kHeapPolicy;
#endif

}  // namespace

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value, bool requires_grad) {
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  node->data.assign(static_cast<size_t>(node->size()), value);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

Tensor Tensor::FromData(std::vector<int64_t> shape, std::vector<float> data,
                        bool requires_grad) {
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  HF_CHECK_EQ(static_cast<int64_t>(data.size()), node->size());
  node->data = std::move(data);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev, bool requires_grad) {
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  node->data.resize(static_cast<size_t>(node->size()));
  for (float& value : node->data) {
    value = static_cast<float>(rng.Normal(0.0, stddev));
  }
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

const std::vector<int64_t>& Tensor::shape() const {
  HF_CHECK(defined());
  return node_->shape;
}

int64_t Tensor::dim(int index) const {
  HF_CHECK(defined());
  HF_CHECK_GE(index, 0);
  HF_CHECK_LT(static_cast<size_t>(index), node_->shape.size());
  return node_->shape[static_cast<size_t>(index)];
}

int64_t Tensor::size() const {
  HF_CHECK(defined());
  return node_->size();
}

bool Tensor::requires_grad() const {
  HF_CHECK(defined());
  return node_->requires_grad;
}

std::vector<float>& Tensor::data() {
  HF_CHECK(defined());
  return node_->data;
}

const std::vector<float>& Tensor::data() const {
  HF_CHECK(defined());
  return node_->data;
}

const std::vector<float>& Tensor::grad() const {
  HF_CHECK(defined());
  HF_CHECK_MSG(node_->grad.size() == node_->data.size(), "grad not populated; run Backward()");
  return node_->grad;
}

float Tensor::item() const {
  HF_CHECK_EQ(size(), 1);
  return node_->data[0];
}

float Tensor::at(int64_t row, int64_t col) const {
  HF_CHECK_EQ(ndim(), 2);
  HF_CHECK_GE(row, 0);
  HF_CHECK_LT(row, dim(0));
  HF_CHECK_GE(col, 0);
  HF_CHECK_LT(col, dim(1));
  return node_->data[static_cast<size_t>(row * dim(1) + col)];
}

float Tensor::at(int64_t index) const {
  HF_CHECK_GE(index, 0);
  HF_CHECK_LT(index, size());
  return node_->data[static_cast<size_t>(index)];
}

namespace {

void TopoSort(const TensorNodePtr& node, std::unordered_set<TensorNode*>& visited,
              std::vector<TensorNodePtr>& order) {
  if (node == nullptr || visited.count(node.get()) > 0) {
    return;
  }
  visited.insert(node.get());
  for (const TensorNodePtr& parent : node->parents) {
    TopoSort(parent, visited, order);
  }
  order.push_back(node);
}

}  // namespace

void Tensor::Backward() {
  HF_CHECK(defined());
  HF_CHECK_MSG(size() == 1, "Backward() must start from a scalar");
  std::unordered_set<TensorNode*> visited;
  std::vector<TensorNodePtr> order;
  TopoSort(node_, visited, order);
  for (const TensorNodePtr& node : order) {
    node->EnsureGrad();
  }
  node_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorNode& node = **it;
    if (node.backward) {
      node.backward(node);
    }
  }
}

void Tensor::ZeroGrad() {
  HF_CHECK(defined());
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

namespace {

thread_local bool grad_enabled = true;

}  // namespace

bool GradEnabled() { return grad_enabled; }

NoGradScope::NoGradScope() : previous_(grad_enabled) { grad_enabled = false; }

NoGradScope::~NoGradScope() { grad_enabled = previous_; }

namespace tensor_internal {

TensorNodePtr NewResultNode(std::vector<int64_t> shape, std::vector<float> data) {
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  node->data = std::move(data);
  HF_CHECK_EQ(static_cast<int64_t>(node->data.size()), node->size());
  return node;
}

bool JoinsGraph(const TensorNodePtr* parents, size_t count) {
  if (!grad_enabled) {
    return false;
  }
  for (size_t i = 0; i < count; ++i) {
    if (parents[i] != nullptr && parents[i]->requires_grad) {
      return true;
    }
  }
  return false;
}

void Wire(TensorNode& node, std::vector<TensorNodePtr> parents,
          std::function<void(TensorNode&)> backward) {
  static Counter& nodes = MetricsRegistry::Global().GetCounter("tensor.autograd_nodes_total");
  node.requires_grad = true;
  node.parents = std::move(parents);
  node.backward = std::move(backward);
  nodes.Increment();
}

}  // namespace tensor_internal

Tensor MakeResult(std::vector<int64_t> shape, std::vector<float> data,
                  std::vector<TensorNodePtr> parents,
                  std::function<void(TensorNode&)> backward) {
  TensorNodePtr node = tensor_internal::NewResultNode(std::move(shape), std::move(data));
  if (tensor_internal::JoinsGraph(parents.data(), parents.size())) {
    tensor_internal::Wire(*node, std::move(parents), std::move(backward));
  }
  return Tensor(std::move(node));
}

}  // namespace hybridflow
