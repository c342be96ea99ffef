#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "src/nn/adam.h"
#include "src/nn/policy_net.h"

namespace hybridflow {
namespace {

PolicyNetConfig TransformerConfig(bool scalar = false) {
  PolicyNetConfig config;
  config.arch = PolicyArch::kTransformer;
  config.vocab_size = 8;
  config.context_window = 4;
  config.embed_dim = 12;
  config.hidden_dim = 24;
  config.num_layers = 2;
  config.scalar_head = scalar;
  return config;
}

// --- New tensor ops -----------------------------------------------------------

TEST(TransposeTest, ForwardAndGrad) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  Tensor t = Transpose(a);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.dim(1), 2);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
  Tensor weighted = Sum(Mul(t, Tensor::FromData({3, 2}, {1, 0, 0, 0, 0, 2})));
  weighted.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);  // a(0,0) <- t(0,0) weight 1.
  EXPECT_FLOAT_EQ(a.grad()[5], 2.0f);  // a(1,2) <- t(2,1) weight 2.
}

TEST(TransposeTest, DoubleTransposeIsIdentity) {
  Rng rng(1);
  Tensor a = Tensor::Randn({3, 5}, rng, 1.0f, false);
  Tensor round_trip = Transpose(Transpose(a));
  for (size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_FLOAT_EQ(round_trip.data()[i], a.data()[i]);
  }
}

TEST(SliceRowsTest, SelectsAndRoutesGrad) {
  Tensor a = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6}, true);
  Tensor middle = SliceRows(a, 1, 2);
  EXPECT_EQ(middle.dim(0), 1);
  EXPECT_FLOAT_EQ(middle.at(0, 1), 4.0f);
  Sum(middle).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[3], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[4], 0.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  Tensor a = Tensor::FromData({2, 4}, {1, 2, 3, 4, -2, 0, 2, 4});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor normed = LayerNorm(a, gamma, beta);
  for (int64_t i = 0; i < 2; ++i) {
    float mean = 0.0f;
    float var = 0.0f;
    for (int64_t j = 0; j < 4; ++j) {
      mean += normed.at(i, j);
    }
    mean /= 4.0f;
    for (int64_t j = 0; j < 4; ++j) {
      var += (normed.at(i, j) - mean) * (normed.at(i, j) - mean);
    }
    EXPECT_NEAR(mean, 0.0f, 1e-5);
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3);
  }
}

TEST(LayerNormTest, AffineParametersApply) {
  Tensor a = Tensor::FromData({1, 2}, {-1.0f, 1.0f});
  Tensor gamma = Tensor::FromData({2}, {2.0f, 2.0f});
  Tensor beta = Tensor::FromData({2}, {5.0f, 5.0f});
  Tensor normed = LayerNorm(a, gamma, beta);
  EXPECT_NEAR(normed.at(0, 0), 5.0f - 2.0f, 1e-4);
  EXPECT_NEAR(normed.at(0, 1), 5.0f + 2.0f, 1e-4);
}

TEST(LayerNormTest, GradientCheckAllInputs) {
  Rng rng(2);
  Tensor gamma = Tensor::Randn({4}, rng, 0.5f);
  Tensor beta = Tensor::Randn({4}, rng, 0.5f);
  Tensor x = Tensor::Randn({2, 4}, rng, 1.0f);
  Tensor weights = Tensor::Randn({2, 4}, rng, 1.0f, /*requires_grad=*/false);

  auto loss_fn = [&]() { return Sum(Mul(LayerNorm(x, gamma, beta), weights)); };
  Tensor loss = loss_fn();
  loss.Backward();
  std::vector<float> dx = x.grad();
  std::vector<float> dgamma = gamma.grad();
  const float eps = 1e-2f;
  for (size_t i = 0; i < x.data().size(); ++i) {
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const float plus = loss_fn().item();
    x.data()[i] = saved - eps;
    const float minus = loss_fn().item();
    x.data()[i] = saved;
    EXPECT_NEAR(dx[i], (plus - minus) / (2 * eps), 5e-2) << "x[" << i << "]";
  }
  for (size_t i = 0; i < gamma.data().size(); ++i) {
    const float saved = gamma.data()[i];
    gamma.data()[i] = saved + eps;
    const float plus = loss_fn().item();
    gamma.data()[i] = saved - eps;
    const float minus = loss_fn().item();
    gamma.data()[i] = saved;
    EXPECT_NEAR(dgamma[i], (plus - minus) / (2 * eps), 5e-2) << "gamma[" << i << "]";
  }
}

// --- Transformer policy ---------------------------------------------------------

TEST(TransformerPolicyTest, ForwardShapes) {
  Rng rng(3);
  PolicyNet net(TransformerConfig(), rng);
  Tensor logits = net.Forward({{0, 1, 2, 3}, {4, 5, 6, 7}});
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 8);
  PolicyNet scalar(TransformerConfig(/*scalar=*/true), rng);
  Tensor values = scalar.Forward({{0, 1, 2, 3}});
  EXPECT_EQ(values.ndim(), 1);
  EXPECT_EQ(values.dim(0), 1);
}

TEST(TransformerPolicyTest, AttendsToEarlyTokens) {
  // Unlike a bag of positions, attention lets the output depend on tokens
  // anywhere in the window; check outputs differ when only the first token
  // changes.
  Rng rng(4);
  PolicyNet net(TransformerConfig(), rng);
  Tensor a = net.Forward({{1, 2, 3, 4}});
  Tensor b = net.Forward({{5, 2, 3, 4}});
  double diff = 0.0;
  for (int64_t j = 0; j < a.dim(1); ++j) {
    diff += std::abs(a.at(0, j) - b.at(0, j));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(TransformerPolicyTest, ParameterCountMatchesArchitecture) {
  Rng rng(5);
  PolicyNet net(TransformerConfig(), rng);
  // embedding + pos + 2 blocks x 12 tensors + final ln (2) + head (2).
  EXPECT_EQ(net.Parameters().size(), 1u + 1u + 2u * 12u + 2u + 2u);
  for (const Tensor& param : net.Parameters()) {
    EXPECT_TRUE(param.requires_grad());
  }
}

TEST(TransformerPolicyTest, CopyFromReproducesOutputs) {
  Rng rng_a(6);
  Rng rng_b(7);
  PolicyNet a(TransformerConfig(), rng_a);
  PolicyNet b(TransformerConfig(), rng_b);
  b.CopyFrom(a);
  Tensor la = a.Forward({{1, 2, 3, 4}});
  Tensor lb = b.Forward({{1, 2, 3, 4}});
  for (int64_t j = 0; j < la.dim(1); ++j) {
    EXPECT_FLOAT_EQ(la.at(0, j), lb.at(0, j));
  }
}

TEST(TransformerPolicyTest, LearnsSuccessorFunction) {
  Rng rng(8);
  PolicyNetConfig config = TransformerConfig();
  PolicyNet net(config, rng);
  AdamConfig adam_config;
  adam_config.lr = 0.01f;
  Adam adam(net.Parameters(), adam_config);
  Rng data_rng(9);
  for (int step = 0; step < 250; ++step) {
    std::vector<std::vector<int64_t>> contexts;
    std::vector<int64_t> targets;
    for (int i = 0; i < 32; ++i) {
      const int64_t last = data_rng.UniformInt(0, config.vocab_size - 1);
      contexts.push_back({data_rng.UniformInt(0, config.vocab_size - 1),
                          data_rng.UniformInt(0, config.vocab_size - 1),
                          data_rng.UniformInt(0, config.vocab_size - 1), last});
      targets.push_back((last + 1) % config.vocab_size);
    }
    Tensor loss = Neg(Mean(net.LogProb(contexts, targets)));
    loss.Backward();
    adam.Step();
  }
  int correct = 0;
  for (int64_t last = 0; last < config.vocab_size; ++last) {
    if (net.Greedy({{0, 0, 0, last}})[0] == (last + 1) % config.vocab_size) {
      correct += 1;
    }
  }
  EXPECT_GE(correct, 6);
}

// The per-context transformer the batched trunk replaced, rebuilt from
// Parameters(): one [K, E] sequence per context, its last row sliced out
// after the final layernorm, the rows concatenated, then the head.
Tensor PerContextForward(const PolicyNet& net,
                         const std::vector<std::vector<int64_t>>& contexts) {
  const PolicyNetConfig& config = net.config();
  const std::vector<Tensor> params = net.Parameters();
  const float scale = 1.0f / std::sqrt(static_cast<float>(config.embed_dim));
  const Tensor& embedding = params[0];
  const Tensor& pos_embedding = params[1];
  std::vector<Tensor> last_rows;
  for (const std::vector<int64_t>& context : contexts) {
    Tensor x = Add(GatherRows(embedding, context), pos_embedding);
    for (int64_t layer = 0; layer < config.num_layers; ++layer) {
      const Tensor* p = &params[2 + 12 * static_cast<size_t>(layer)];
      // p: wq, wk, wv, wo, ln1 gamma/beta, ln2 gamma/beta, ff1, ff1 bias,
      // ff2, ff2 bias.
      Tensor normed = LayerNorm(x, p[4], p[5]);
      Tensor q = MatMul(normed, p[0]);
      Tensor k = MatMul(normed, p[1]);
      Tensor v = MatMul(normed, p[2]);
      Tensor attention = MatMul(Softmax(Scale(MatMul(q, Transpose(k)), scale)), v);
      x = Add(x, MatMul(attention, p[3]));
      Tensor hidden = Gelu(Add(LayerNormMatMul(x, p[6], p[7], p[8]), p[9]));
      x = Add(x, Add(MatMul(hidden, p[10]), p[11]));
    }
    const size_t final_ln = 2 + 12 * static_cast<size_t>(config.num_layers);
    Tensor sequence = LayerNorm(x, params[final_ln], params[final_ln + 1]);
    last_rows.push_back(
        SliceRows(sequence, config.context_window - 1, config.context_window));
  }
  Tensor out = Add(MatMul(ConcatRows(last_rows), params[params.size() - 2]), params.back());
  return config.scalar_head ? Reshape(out, {static_cast<int64_t>(contexts.size())}) : out;
}

// The batched trunk stacks every context's rows into one graph. Every
// kernel works per row and attention stays inside each context's block,
// so forward values equal the per-context network bit for bit. Parameter
// gradients sum over all rows in one pass instead of context by context,
// so they may differ in the last bits only.
TEST(TransformerPolicyTest, BatchedForwardMatchesPerContextBitwise) {
  for (bool scalar : {false, true}) {
    Rng rng(11);
    PolicyNet net(TransformerConfig(scalar), rng);
    Rng data_rng(12);
    std::vector<std::vector<int64_t>> contexts(37);
    for (std::vector<int64_t>& context : contexts) {
      for (int t = 0; t < 4; ++t) {
        context.push_back(data_rng.UniformInt(0, 7));
      }
    }
    contexts[5] = {0, 0, 0, 3};  // Left padding.
    contexts[6] = contexts[5];   // A repeated context.

    Tensor batched = net.Forward(contexts);
    Tensor reference = PerContextForward(net, contexts);
    ASSERT_EQ(batched.shape(), reference.shape());
    ASSERT_EQ(std::memcmp(batched.data().data(), reference.data().data(),
                          batched.data().size() * sizeof(float)),
              0)
        << "scalar head " << scalar;

    const std::vector<Tensor> params = net.Parameters();
    Sum(Square(batched)).Backward();
    std::vector<std::vector<float>> batched_grads;
    for (const Tensor& param : params) {
      batched_grads.push_back(param.grad());
    }
    for (Tensor param : params) {
      param.ZeroGrad();
    }
    Sum(Square(reference)).Backward();
    for (size_t i = 0; i < params.size(); ++i) {
      const std::vector<float>& expected = params[i].grad();
      float scale = 0.0f;
      for (float g : expected) {
        scale = std::max(scale, std::abs(g));
      }
      ASSERT_GT(scale, 0.0f) << "parameter " << i;
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_LE(std::abs(batched_grads[i][j] - expected[j]), 1e-3f * scale)
            << "parameter " << i << " element " << j << " scalar head " << scalar;
      }
    }
  }
}

TEST(TransformerPolicyTest, GradCheckThroughWholeNetwork) {
  // End-to-end gradient check of one embedding row through attention,
  // layernorm, MLP, residuals, and the head.
  Rng rng(10);
  PolicyNetConfig config = TransformerConfig();
  config.num_layers = 1;
  PolicyNet net(config, rng);
  std::vector<std::vector<int64_t>> contexts = {{1, 2, 3, 4}};
  std::vector<int64_t> targets = {5};
  Tensor loss = Neg(Mean(net.LogProb(contexts, targets)));
  loss.Backward();
  Tensor embedding = net.Parameters()[0];
  const std::vector<float> grads = embedding.grad();
  const float eps = 1e-2f;
  // Token 2's embedding row (present in the context) must have gradients.
  const size_t row = 2 * static_cast<size_t>(config.embed_dim);
  double grad_mass = 0.0;
  for (int64_t j = 0; j < config.embed_dim; ++j) {
    grad_mass += std::abs(grads[row + static_cast<size_t>(j)]);
  }
  EXPECT_GT(grad_mass, 1e-6);
  // Numeric check of the first two coordinates.
  for (size_t j = row; j < row + 2; ++j) {
    const float saved = embedding.data()[j];
    embedding.data()[j] = saved + eps;
    const float plus = Neg(Mean(net.LogProb(contexts, targets))).item();
    embedding.data()[j] = saved - eps;
    const float minus = Neg(Mean(net.LogProb(contexts, targets))).item();
    embedding.data()[j] = saved;
    EXPECT_NEAR(grads[j], (plus - minus) / (2 * eps), 3e-2);
  }
}

}  // namespace
}  // namespace hybridflow
