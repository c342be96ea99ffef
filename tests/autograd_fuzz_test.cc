// Autograd fuzzing: random compositions of differentiable ops are checked
// against central-difference numerical gradients. This is the safety net
// under every loss in the repo — any op with a wrong backward breaks here
// with high probability.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "src/common/rng.h"
#include "src/tensor/ops.h"
#include "src/tensor/parallel.h"

namespace hybridflow {
namespace {

// A unary op that is smooth everywhere (safe for numerical differencing).
using SmoothUnary = std::function<Tensor(const Tensor&)>;

std::vector<SmoothUnary> SmoothUnaries() {
  return {
      [](const Tensor& x) { return Tanh(x); },
      [](const Tensor& x) { return Gelu(x); },
      [](const Tensor& x) { return Exp(Scale(x, 0.3f)); },
      [](const Tensor& x) { return Square(x); },
      [](const Tensor& x) { return Sigmoid(x); },
      [](const Tensor& x) { return Softplus(x); },
      [](const Tensor& x) { return Scale(x, -1.7f); },
      [](const Tensor& x) { return AddScalar(x, 0.5f); },
  };
}

TEST(AutogradFuzzTest, RandomUnaryChainsMatchNumericalGradients) {
  Rng rng(4242);
  const std::vector<SmoothUnary> ops = SmoothUnaries();
  for (int trial = 0; trial < 40; ++trial) {
    const int depth = static_cast<int>(rng.UniformInt(1, 5));
    std::vector<size_t> chain;
    for (int d = 0; d < depth; ++d) {
      chain.push_back(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ops.size()) - 1)));
    }
    auto fn = [&](const Tensor& x) {
      Tensor value = x;
      for (size_t op : chain) {
        value = ops[op](value);
      }
      return Mean(value);
    };
    Tensor input = Tensor::Randn({5}, rng, 0.6f);
    Tensor output = fn(input);
    output.Backward();
    std::vector<float> analytic = input.grad();
    const float eps = 5e-3f;
    for (size_t i = 0; i < input.data().size(); ++i) {
      const float saved = input.data()[i];
      input.data()[i] = saved + eps;
      const float plus = fn(input).item();
      input.data()[i] = saved - eps;
      const float minus = fn(input).item();
      input.data()[i] = saved;
      const float numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(analytic[i], numeric, 5e-2f)
          << "trial " << trial << " element " << i << " depth " << depth;
    }
  }
}

TEST(AutogradFuzzTest, RandomTwoInputGraphsMatchNumericalGradients) {
  Rng rng(2121);
  const std::vector<SmoothUnary> ops = SmoothUnaries();
  for (int trial = 0; trial < 30; ++trial) {
    const size_t op_a = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ops.size()) - 1));
    const size_t op_b = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ops.size()) - 1));
    const int combiner = static_cast<int>(rng.UniformInt(0, 2));
    auto fn = [&](const Tensor& x, const Tensor& y) {
      Tensor a = ops[op_a](x);
      Tensor b = ops[op_b](y);
      Tensor combined = combiner == 0   ? Add(a, b)
                        : combiner == 1 ? Mul(a, b)
                                        : Sub(a, b);
      return Mean(combined);
    };
    Tensor x = Tensor::Randn({4}, rng, 0.5f);
    Tensor y = Tensor::Randn({4}, rng, 0.5f);
    Tensor output = fn(x, y);
    output.Backward();
    const std::vector<float> dx = x.grad();
    const std::vector<float> dy = y.grad();
    const float eps = 5e-3f;
    for (size_t i = 0; i < 4; ++i) {
      {
        const float saved = x.data()[i];
        x.data()[i] = saved + eps;
        const float plus = fn(x, y).item();
        x.data()[i] = saved - eps;
        const float minus = fn(x, y).item();
        x.data()[i] = saved;
        EXPECT_NEAR(dx[i], (plus - minus) / (2 * eps), 5e-2f) << "x " << trial;
      }
      {
        const float saved = y.data()[i];
        y.data()[i] = saved + eps;
        const float plus = fn(x, y).item();
        y.data()[i] = saved - eps;
        const float minus = fn(x, y).item();
        y.data()[i] = saved;
        EXPECT_NEAR(dy[i], (plus - minus) / (2 * eps), 5e-2f) << "y " << trial;
      }
    }
  }
}

TEST(AutogradFuzzTest, MatrixPipelinesMatchNumericalGradients) {
  Rng rng(3333);
  for (int trial = 0; trial < 15; ++trial) {
    const int64_t m = rng.UniformInt(1, 4);
    const int64_t k = rng.UniformInt(1, 4);
    const int64_t n = rng.UniformInt(1, 4);
    Tensor w = Tensor::Randn({k, n}, rng, 0.7f, /*requires_grad=*/false);
    Tensor bias = Tensor::Randn({n}, rng, 0.3f, /*requires_grad=*/false);
    auto fn = [&](const Tensor& x) {
      Tensor h = Gelu(Add(MatMul(x, w), bias));
      return Mean(RowSum(h));
    };
    Tensor x = Tensor::Randn({m, k}, rng, 0.8f);
    Tensor out = fn(x);
    out.Backward();
    const std::vector<float> analytic = x.grad();
    const float eps = 5e-3f;
    for (size_t i = 0; i < x.data().size(); ++i) {
      const float saved = x.data()[i];
      x.data()[i] = saved + eps;
      const float plus = fn(x).item();
      x.data()[i] = saved - eps;
      const float minus = fn(x).item();
      x.data()[i] = saved;
      EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), 6e-2f) << trial;
    }
  }
}

// Fuzzed determinism sweep: random matrix pipelines (GEMM family,
// BlockAttention, row-wise and elementwise kernels) must produce
// bitwise-identical values and gradients at every tensor.threads setting.
TEST(AutogradKernelFuzzTest, RandomPipelinesBitwiseInvariantAcrossThreads) {
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::vector<float>> outputs;
    std::vector<std::vector<float>> grads_x;
    std::vector<std::vector<float>> grads_w;
    for (int threads : {1, 2, 3, 8}) {
      SetTensorThreads(threads);
      // Re-seed per run so every thread count sees identical inputs.
      Rng rng(9000 + static_cast<uint64_t>(trial));
      const int64_t m = 32 + rng.UniformInt(0, 64);
      const int64_t k = 16 + rng.UniformInt(0, 48);
      const int64_t n = 16 + rng.UniformInt(0, 48);
      Tensor x = Tensor::Randn({m, k}, rng, 0.6f);
      Tensor w = Tensor::Randn({n, k}, rng, 0.6f);
      Tensor scores = MatMul(x, Transpose(w));             // [m, n]
      Tensor probs = Softmax(scores);
      Tensor h = Gelu(MatMul(Transpose(probs), x));        // [n, k]
      // Attention blocks: the first of 8, 5, 4, 3, 2 that divides m, else 1.
      int64_t block = 1;
      for (int64_t b : {8, 5, 4, 3, 2}) {
        if (m % b == 0) {
          block = b;
          break;
        }
      }
      Tensor attended = BlockAttention(x, Scale(x, 0.5f), scores, block, 0.3f);  // [m, n]
      Tensor loss = Add(Add(Sum(Square(h)), Sum(LogSoftmax(scores))),
                        Sum(Square(attended)));
      loss.Backward();
      outputs.push_back(loss.data());
      grads_x.push_back(x.grad());
      grads_w.push_back(w.grad());
    }
    SetTensorThreads(0);
    for (size_t run = 1; run < outputs.size(); ++run) {
      ASSERT_EQ(outputs[0].size(), outputs[run].size()) << trial;
      EXPECT_EQ(std::memcmp(outputs[0].data(), outputs[run].data(),
                            outputs[0].size() * sizeof(float)),
                0)
          << "loss diverged, trial " << trial << " run " << run;
      ASSERT_EQ(grads_x[0].size(), grads_x[run].size()) << trial;
      EXPECT_EQ(std::memcmp(grads_x[0].data(), grads_x[run].data(),
                            grads_x[0].size() * sizeof(float)),
                0)
          << "dx diverged, trial " << trial << " run " << run;
      ASSERT_EQ(grads_w[0].size(), grads_w[run].size()) << trial;
      EXPECT_EQ(std::memcmp(grads_w[0].data(), grads_w[run].data(),
                            grads_w[0].size() * sizeof(float)),
                0)
          << "dw diverged, trial " << trial << " run " << run;
    }
  }
}

TEST(AutogradFuzzTest, SigmoidSoftplusIdentities) {
  // softplus'(x) == sigmoid(x); check as values over a range.
  for (float x : {-4.0f, -1.0f, 0.0f, 0.5f, 3.0f}) {
    Tensor input = Tensor::FromData({1}, {x}, true);
    Tensor out = Softplus(input);
    out.Backward();
    const float sigmoid = 1.0f / (1.0f + std::exp(-x));
    EXPECT_NEAR(input.grad()[0], sigmoid, 1e-5f);
    // softplus(x) - softplus(-x) == x.
    Tensor neg = Softplus(Neg(Tensor::FromData({1}, {x})));
    EXPECT_NEAR(out.item() - neg.item(), x, 1e-5f);
  }
}

}  // namespace
}  // namespace hybridflow
