#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/tensor/ops.h"
#include "src/tensor/parallel.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"

namespace hybridflow {
namespace {

// Numerical gradient check: perturbs each input element and compares the
// central difference against the autograd gradient of a scalar output.
void CheckGradient(const std::function<Tensor(const Tensor&)>& fn, Tensor input,
                   float tolerance = 2e-2f) {
  Tensor output = fn(input);
  output.Backward();
  const std::vector<float> analytic = input.grad();
  const float epsilon = 1e-2f;
  for (size_t i = 0; i < input.data().size(); ++i) {
    const float saved = input.data()[i];
    input.data()[i] = saved + epsilon;
    const float plus = fn(input).item();
    input.data()[i] = saved - epsilon;
    const float minus = fn(input).item();
    input.data()[i] = saved;
    const float numeric = (plus - minus) / (2.0f * epsilon);
    EXPECT_NEAR(analytic[i], numeric, tolerance) << "element " << i;
  }
}

TEST(TensorTest, FactoriesAndAccessors) {
  Tensor zeros = Tensor::Zeros({2, 3});
  EXPECT_EQ(zeros.size(), 6);
  EXPECT_EQ(zeros.ndim(), 2);
  EXPECT_FLOAT_EQ(zeros.at(1, 2), 0.0f);

  Tensor data = Tensor::FromData({3}, {1.0f, 2.0f, 3.0f});
  EXPECT_FLOAT_EQ(data.at(1), 2.0f);

  Tensor scalar = Tensor::Scalar(5.0f);
  EXPECT_FLOAT_EQ(scalar.item(), 5.0f);
}

TEST(TensorTest, RandnUsesGivenStddev) {
  Rng rng(3);
  Tensor t = Tensor::Randn({1000}, rng, 0.5f);
  double sum = 0.0;
  double sq = 0.0;
  for (float x : t.data()) {
    sum += x;
    sq += x * x;
  }
  const double mean = sum / 1000.0;
  const double stddev = std::sqrt(sq / 1000.0 - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.06);
  EXPECT_NEAR(stddev, 0.5, 0.06);
}

TEST(MatMulTest, ForwardValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, GradientCheck) {
  Rng rng(1);
  Tensor b = Tensor::FromData({3, 2}, {0.1f, -0.2f, 0.3f, 0.4f, -0.5f, 0.6f});
  CheckGradient([&](const Tensor& a) { return Sum(MatMul(a, b)); },
                Tensor::Randn({2, 3}, rng, 1.0f));
  Tensor a = Tensor::FromData({2, 3}, {0.5f, -1.0f, 0.25f, 2.0f, 0.0f, -0.75f});
  CheckGradient([&](const Tensor& w) { return Sum(MatMul(a, w)); },
                Tensor::Randn({3, 2}, rng, 1.0f));
}

// MatMul on a transposed operand is how the references form a·bᵀ and
// aᵀ·c; pin both products against a naive loop.
TEST(MatMulTest, TransposedOperandsMatchNaiveProducts) {
  Rng rng(5);
  Tensor a = Tensor::Randn({4, 6}, rng, 1.0f, /*requires_grad=*/false);
  Tensor b = Tensor::Randn({5, 6}, rng, 1.0f, /*requires_grad=*/false);
  Tensor c = Tensor::Randn({4, 3}, rng, 1.0f, /*requires_grad=*/false);
  Tensor nt = MatMul(a, Transpose(b));
  Tensor tn = MatMul(Transpose(a), c);
  ASSERT_EQ(nt.shape(), (std::vector<int64_t>{4, 5}));
  ASSERT_EQ(tn.shape(), (std::vector<int64_t>{6, 3}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      double sum = 0.0;
      for (int64_t p = 0; p < 6; ++p) {
        sum += static_cast<double>(a.at(i, p)) * b.at(j, p);
      }
      EXPECT_NEAR(nt.at(i, j), sum, 1e-5) << "a*b^T at " << i << "," << j;
    }
  }
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      double sum = 0.0;
      for (int64_t p = 0; p < 4; ++p) {
        sum += static_cast<double>(a.at(p, i)) * c.at(p, j);
      }
      EXPECT_NEAR(tn.at(i, j), sum, 1e-5) << "a^T*c at " << i << "," << j;
    }
  }
}

TEST(TransposeTest, ForwardValuesAndGradient) {
  Tensor small = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(small);
  ASSERT_EQ(t.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(t.data(), (std::vector<float>{1, 4, 2, 5, 3, 6}));

  // Large enough to be split across row chunks.
  Rng rng(6);
  Tensor big = Tensor::Randn({37, 53}, rng, 1.0f, /*requires_grad=*/false);
  Tensor big_t = Transpose(big);
  ASSERT_EQ(big_t.shape(), (std::vector<int64_t>{53, 37}));
  for (int64_t i = 0; i < 37; ++i) {
    for (int64_t j = 0; j < 53; ++j) {
      ASSERT_EQ(big_t.at(j, i), big.at(i, j)) << i << "," << j;
    }
  }

  Tensor weights = Tensor::Randn({3, 2}, rng, 1.0f, /*requires_grad=*/false);
  CheckGradient([&](const Tensor& x) { return Sum(Mul(Transpose(x), weights)); },
                Tensor::Randn({2, 3}, rng, 1.0f));
}

TEST(LayerNormTest, NormalizesRowsAndGradientCheck) {
  Rng rng(8);
  Tensor x = Tensor::Randn({3, 7}, rng, 2.0f, /*requires_grad=*/false);
  Tensor y = LayerNorm(x, Tensor::Full({7}, 1.0f), Tensor::Zeros({7}));
  for (int64_t i = 0; i < 3; ++i) {
    double mean = 0.0;
    double sq = 0.0;
    for (int64_t j = 0; j < 7; ++j) {
      mean += y.at(i, j);
      sq += static_cast<double>(y.at(i, j)) * y.at(i, j);
    }
    mean /= 7.0;
    EXPECT_NEAR(mean, 0.0, 1e-5) << "row " << i;
    EXPECT_NEAR(sq / 7.0 - mean * mean, 1.0, 1e-3) << "row " << i;
  }

  Tensor gamma = Tensor::Randn({7}, rng, 0.3f, /*requires_grad=*/false);
  Tensor beta = Tensor::Randn({7}, rng, 0.3f, /*requires_grad=*/false);
  Tensor weights = Tensor::Randn({3, 7}, rng, 1.0f, /*requires_grad=*/false);
  CheckGradient(
      [&](const Tensor& a) { return Sum(Mul(LayerNorm(a, gamma, beta), weights)); },
      Tensor::Randn({3, 7}, rng, 1.0f));
  CheckGradient(
      [&](const Tensor& g) { return Sum(Mul(LayerNorm(x, g, beta), weights)); },
      Tensor::Randn({7}, rng, 0.3f));
  CheckGradient(
      [&](const Tensor& b) { return Sum(Mul(LayerNorm(x, gamma, b), weights)); },
      Tensor::Randn({7}, rng, 0.3f));
}

TEST(AddTest, BiasBroadcastForwardAndGrad) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::FromData({2}, {10, 20}, /*requires_grad=*/true);
  Tensor out = Add(a, bias);
  EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 24.0f);
  Sum(out).Backward();
  EXPECT_FLOAT_EQ(bias.grad()[0], 2.0f);  // Broadcast over 2 rows.
  EXPECT_FLOAT_EQ(bias.grad()[1], 2.0f);
}

TEST(ElementwiseTest, GradientChecks) {
  Rng rng(2);
  Tensor other = Tensor::Randn({6}, rng, 1.0f, /*requires_grad=*/false);
  CheckGradient([&](const Tensor& x) { return Sum(Mul(x, other)); },
                Tensor::Randn({6}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Sum(Sub(x, other)); },
                Tensor::Randn({6}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Sum(Square(x)); },
                Tensor::Randn({6}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Sum(Exp(x)); }, Tensor::Randn({6}, rng, 0.5f));
  CheckGradient([&](const Tensor& x) { return Sum(Tanh(x)); }, Tensor::Randn({6}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Sum(Gelu(x)); }, Tensor::Randn({6}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Mean(Scale(x, 3.0f)); },
                Tensor::Randn({6}, rng, 1.0f));
}

// Add, Sub and Mul share one equal-shape wiring; each must route the
// upstream gradient into both operands with its own sign and factor.
// Every value here is exact in float.
TEST(ElementwiseTest, EqualShapeBinaryOpsGradBothOperands) {
  const std::vector<float> av = {1.5f, -2.0f, 0.25f, 3.0f};
  const std::vector<float> bv = {-0.5f, 4.0f, 2.0f, -1.0f};
  const std::vector<float> upstream = {1.0f, 2.0f, 3.0f, 4.0f};
  for (const char* op : {"add", "sub", "mul"}) {
    Tensor a = Tensor::FromData({2, 2}, av, /*requires_grad=*/true);
    Tensor b = Tensor::FromData({2, 2}, bv, /*requires_grad=*/true);
    const std::string name = op;
    Tensor out = name == "add" ? Add(a, b) : name == "sub" ? Sub(a, b) : Mul(a, b);
    Sum(Mul(out, Tensor::FromData({2, 2}, upstream))).Backward();
    for (size_t i = 0; i < av.size(); ++i) {
      const float g = upstream[i];
      const float value = name == "add" ? av[i] + bv[i]
                          : name == "sub" ? av[i] - bv[i]
                                          : av[i] * bv[i];
      const float da = name == "mul" ? g * bv[i] : g;
      const float db = name == "add" ? g : name == "sub" ? -g : g * av[i];
      EXPECT_FLOAT_EQ(out.data()[i], value) << op << " element " << i;
      EXPECT_FLOAT_EQ(a.grad()[i], da) << op << " da element " << i;
      EXPECT_FLOAT_EQ(b.grad()[i], db) << op << " db element " << i;
    }
  }
}

TEST(ElementwiseTest, MinimumMaximumPickCorrectBranch) {
  Tensor a = Tensor::FromData({2}, {1.0f, 5.0f}, true);
  Tensor b = Tensor::FromData({2}, {3.0f, 2.0f}, false);
  Tensor lo = Minimum(a, b);
  EXPECT_FLOAT_EQ(lo.at(0), 1.0f);
  EXPECT_FLOAT_EQ(lo.at(1), 2.0f);
  Sum(lo).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);  // a chosen.
  EXPECT_FLOAT_EQ(a.grad()[1], 0.0f);  // b chosen.
}

TEST(ClampTest, GradientIsMaskInsideRange) {
  Tensor x = Tensor::FromData({3}, {-2.0f, 0.5f, 2.0f}, true);
  Tensor clamped = Clamp(x, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(clamped.at(0), -1.0f);
  EXPECT_FLOAT_EQ(clamped.at(1), 0.5f);
  EXPECT_FLOAT_EQ(clamped.at(2), 1.0f);
  Sum(clamped).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 0.0f);
}

TEST(LogSoftmaxTest, RowsSumToOneAfterExp) {
  Rng rng(4);
  Tensor logits = Tensor::Randn({3, 5}, rng, 2.0f);
  Tensor log_probs = LogSoftmax(logits);
  for (int64_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < 5; ++j) {
      sum += std::exp(log_probs.at(i, j));
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(LogSoftmaxTest, GradientCheck) {
  Rng rng(5);
  CheckGradient([&](const Tensor& x) { return Sum(Mul(LogSoftmax(x),
                                                      Tensor::FromData({2, 3}, {1, 0, 2, -1, 1, 0}))); },
                Tensor::Randn({2, 3}, rng, 1.0f));
}

TEST(LogSoftmaxTest, NumericallyStableForLargeLogits) {
  Tensor logits = Tensor::FromData({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor log_probs = LogSoftmax(logits);
  EXPECT_NEAR(log_probs.at(0, 0), std::log(1.0 / 3.0), 1e-4);
}

TEST(GatherRowsTest, SelectsAndScattersGrad) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6}, true);
  Tensor rows = GatherRows(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(rows.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(rows.at(1, 1), 2.0f);
  Sum(rows).Backward();
  EXPECT_FLOAT_EQ(table.grad()[0], 1.0f);  // Row 0 selected once.
  EXPECT_FLOAT_EQ(table.grad()[2], 0.0f);  // Row 1 never selected.
  EXPECT_FLOAT_EQ(table.grad()[4], 2.0f);  // Row 2 selected twice.
}

TEST(PickPerRowTest, PicksAndScattersGrad) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  Tensor picked = PickPerRow(a, {2, 0});
  EXPECT_FLOAT_EQ(picked.at(0), 3.0f);
  EXPECT_FLOAT_EQ(picked.at(1), 4.0f);
  Sum(picked).Backward();
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[3], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(ReshapeTest, PreservesDataPassesGrad) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4}, true);
  Tensor flat = Reshape(a, {4});
  EXPECT_FLOAT_EQ(flat.at(3), 4.0f);
  Sum(flat).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
}

TEST(DetachTest, BlocksGradient) {
  Tensor a = Tensor::FromData({2}, {1.0f, 2.0f}, true);
  Tensor detached = Detach(a);
  EXPECT_FALSE(detached.requires_grad());
  Tensor loss = Sum(Mul(detached, detached));
  EXPECT_FALSE(loss.requires_grad());
}

TEST(ConcatRowsTest, StacksAndRoutesGrads) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2}, true);
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6}, true);
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.dim(0), 3);
  EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
  Sum(c).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[3], 1.0f);
}

TEST(AutogradTest, GradAccumulatesOverSharedSubexpressions) {
  Tensor x = Tensor::FromData({1}, {3.0f}, true);
  Tensor y = Add(Mul(x, x), Mul(x, x));  // 2x^2, dy/dx = 4x = 12.
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);
}

TEST(AutogradTest, DiamondGraphGradIsCorrect) {
  Tensor x = Tensor::FromData({1}, {2.0f}, true);
  Tensor a = Scale(x, 3.0f);
  Tensor b = Square(x);
  Tensor y = Sum(Mul(a, b));  // 3x^3 -> dy/dx = 9x^2 = 36.
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 36.0f);
}

// ---------------------------------------------------------------------------
// Fused ops against their composed forms
// ---------------------------------------------------------------------------

// Bitwise comparison: float == treats -0.0 == 0.0 and NaN != NaN, so
// compare the raw bit patterns.
void ExpectBitwiseEq(const std::vector<float>& a, const std::vector<float>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0) << what;
}

// The fused LayerNorm+MatMul replays the composed ops' exact canonical
// sequences, so values AND gradients are bitwise identical to
// MatMul(LayerNorm(x, gamma, beta), w) from freshly zeroed gradients.
TEST(LayerNormMatMulTest, MatchesComposedBitwise) {
  Rng rng(9);
  Tensor x = Tensor::Randn({7, 13}, rng, 1.0f);
  Tensor gamma = Tensor::Randn({13}, rng, 0.3f);
  Tensor beta = Tensor::Randn({13}, rng, 0.3f);
  Tensor w = Tensor::Randn({13, 11}, rng, 0.5f);
  Tensor x2 = Tensor::FromData(x.shape(), x.data(), /*requires_grad=*/true);
  Tensor gamma2 = Tensor::FromData(gamma.shape(), gamma.data(), /*requires_grad=*/true);
  Tensor beta2 = Tensor::FromData(beta.shape(), beta.data(), /*requires_grad=*/true);
  Tensor w2 = Tensor::FromData(w.shape(), w.data(), /*requires_grad=*/true);
  Tensor fused = LayerNormMatMul(x, gamma, beta, w);
  Tensor composed = MatMul(LayerNorm(x2, gamma2, beta2), w2);
  ExpectBitwiseEq(fused.data(), composed.data(), "forward");
  Sum(Square(fused)).Backward();
  Sum(Square(composed)).Backward();
  ExpectBitwiseEq(x.grad(), x2.grad(), "dx");
  ExpectBitwiseEq(gamma.grad(), gamma2.grad(), "dgamma");
  ExpectBitwiseEq(beta.grad(), beta2.grad(), "dbeta");
  ExpectBitwiseEq(w.grad(), w2.grad(), "dW");
}

// The per-block chain BlockAttention replays: each block's rows sliced
// out, attended, and the block outputs concatenated back in order.
Tensor ComposedBlockAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                              int64_t block, float scale) {
  std::vector<Tensor> parts;
  for (int64_t r = 0; r < q.dim(0); r += block) {
    Tensor scores =
        Scale(MatMul(SliceRows(q, r, r + block), Transpose(SliceRows(k, r, r + block))),
              scale);
    parts.push_back(MatMul(Softmax(scores), SliceRows(v, r, r + block)));
  }
  return ConcatRows(parts);
}

// BlockAttention replays the composed per-block ops' exact sequences, so
// values AND gradients are bitwise identical to the composed chain from
// freshly zeroed gradients — for one-row blocks, odd blocks, the
// transformer's block of 4, a single block covering every row, and
// every block in {1, 2, 3, 4, 5, 8} at head widths 4, 16 and 17.
TEST(BlockAttentionTest, MatchesComposedBitwise) {
  struct Case {
    int64_t rows;
    int64_t block;
    int64_t dk;
    int64_t dv;
  };
  std::vector<Case> cases = {Case{12, 1, 13, 9}, Case{12, 3, 13, 9}, Case{12, 4, 13, 9},
                             Case{9, 9, 13, 9}};
  for (int64_t block : {1, 2, 3, 4, 5, 8}) {
    for (int64_t dk : {4, 16, 17}) {
      cases.push_back(Case{3 * block, block, dk, dk});
    }
  }
  for (const Case& c : cases) {
    Rng rng(31 + static_cast<uint64_t>(c.block));
    Tensor q = Tensor::Randn({c.rows, c.dk}, rng, 1.0f);
    Tensor k = Tensor::Randn({c.rows, c.dk}, rng, 1.0f);
    Tensor v = Tensor::Randn({c.rows, c.dv}, rng, 1.0f);
    Tensor q2 = Tensor::FromData(q.shape(), q.data(), /*requires_grad=*/true);
    Tensor k2 = Tensor::FromData(k.shape(), k.data(), /*requires_grad=*/true);
    Tensor v2 = Tensor::FromData(v.shape(), v.data(), /*requires_grad=*/true);
    Tensor fused = BlockAttention(q, k, v, c.block, 0.37f);
    Tensor composed = ComposedBlockAttention(q2, k2, v2, c.block, 0.37f);
    const std::string label =
        "block=" + std::to_string(c.block) + " dk=" + std::to_string(c.dk);
    ExpectBitwiseEq(fused.data(), composed.data(), (label + " forward").c_str());
    Sum(Square(fused)).Backward();
    Sum(Square(composed)).Backward();
    ExpectBitwiseEq(q.grad(), q2.grad(), (label + " dq").c_str());
    ExpectBitwiseEq(k.grad(), k2.grad(), (label + " dk").c_str());
    ExpectBitwiseEq(v.grad(), v2.grad(), (label + " dv").c_str());
  }
}

// ---------------------------------------------------------------------------
// Row-range SIMD kernels
// ---------------------------------------------------------------------------

// Kernel inputs: N(0, 1) values with ~10% of entries replaced by ±0 or
// denormals and two entries by ±inf or NaN, so most outputs stay finite
// while every special value reaches some fma chain. The NaN is x86's
// default NaN (sign bit set), the one an operation without NaN inputs
// produces, so every NaN in a run has the same bits and outputs compare
// bitwise whichever operand a NaN result propagates from.
std::vector<float> KernelInputs(int64_t size, Rng& rng) {
  const float kSmall[] = {0.0f, -0.0f, 1e-40f, -3e-39f, std::numeric_limits<float>::denorm_min()};
  const float kInf = std::numeric_limits<float>::infinity();
  const float kLarge[] = {kInf, -kInf, -std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> v(static_cast<size_t>(size));
  for (float& x : v) {
    x = static_cast<float>(rng.Normal(0.0, 1.0));
    if (rng.Uniform(0.0, 1.0) < 0.1) {
      x = kSmall[rng.UniformInt(0, 4)];
    }
  }
  for (int i = 0; i < 2; ++i) {
    v[static_cast<size_t>(rng.UniformInt(0, size - 1))] = kLarge[rng.UniformInt(0, 2)];
  }
  return v;
}

// Runs `kernel` on fresh copies of the same inputs under the scalar and
// the AVX2 tier and compares the outputs bitwise. Without AVX2 the
// override stays scalar and the comparison is trivially equal.
void ExpectTiersBitwiseEqual(const std::function<std::vector<float>()>& kernel,
                             const std::string& label) {
  SetSimdOverride(SimdLevel::kScalar);
  const std::vector<float> scalar = kernel();
  SetSimdOverride(SimdLevel::kAvx2Fma);
  const std::vector<float> vectorized = kernel();
  ClearSimdOverride();
  ExpectBitwiseEq(scalar, vectorized, label.c_str());
}

// Runs check(rows, n, inner) over every kernel shape, stopping at the
// first failure: row counts 1-9 cover every leftover-row count of the
// 4- and 2-row tiles; the widths cover every tile (32, 16, 8 and 4 wide)
// with every tail; the inner sizes cover short chains, every count of
// leftover dots in DotRows' 8-dot group, and the k-block edge.
void ForEachRowKernelShape(const std::function<void(int64_t, int64_t, int64_t)>& check) {
  std::vector<int64_t> inner_sizes;
  for (int64_t k = 1; k <= 17; ++k) {
    inner_sizes.push_back(k);
  }
  for (int64_t k : {255, 256, 257}) {
    inner_sizes.push_back(k);
  }
  for (int64_t rows = 1; rows <= 9; ++rows) {
    for (int64_t n : {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
      for (int64_t inner : inner_sizes) {
        check(rows, n, inner);
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }
}

std::string ShapeLabel(int64_t rows, int64_t n, int64_t inner) {
  return "rows=" + std::to_string(rows) + " n=" + std::to_string(n) +
         " inner=" + std::to_string(inner);
}

// simd::GemmRows on strided x, w and y: the padding columns of y must
// stay untouched as well.
TEST(SimdRowKernelTest, GemmRowsScalarAndAvx2Bitwise) {
  ForEachRowKernelShape([](int64_t rows, int64_t n, int64_t kb) {
    Rng rng(static_cast<uint64_t>(rows * 100000 + n * 1000 + kb));
    const int64_t x_stride = kb + 3;
    const int64_t w_stride = n + 2;
    const int64_t y_stride = n + 1;
    const std::vector<float> x = KernelInputs(rows * x_stride, rng);
    const std::vector<float> w = KernelInputs(kb * w_stride, rng);
    const std::vector<float> y0 = KernelInputs(rows * y_stride, rng);
    ExpectTiersBitwiseEqual(
        [&] {
          std::vector<float> y = y0;
          simd::GemmRows(rows, kb, n, x.data(), x_stride, w.data(), w_stride, y.data(),
                         y_stride);
          return y;
        },
        ShapeLabel(rows, n, kb));
  });
}

TEST(SimdRowKernelTest, DotRowsScalarAndAvx2Bitwise) {
  ForEachRowKernelShape([](int64_t rows, int64_t n, int64_t k) {
    Rng rng(static_cast<uint64_t>(rows * 100000 + n * 1000 + k) + 7);
    const std::vector<float> g = KernelInputs(rows * n, rng);
    const std::vector<float> w = KernelInputs(k * n, rng);
    const std::vector<float> da0 = KernelInputs(rows * k, rng);
    ExpectTiersBitwiseEqual(
        [&] {
          std::vector<float> da = da0;
          simd::DotRows(rows, k, n, g.data(), w.data(), da.data());
          return da;
        },
        ShapeLabel(rows, n, k));
  });
}

// simd::ColumnGemm over output rows [1, 1 + rows) of a column walk of
// length m: row 0 of y, outside the range, must stay untouched.
TEST(SimdRowKernelTest, ColumnGemmScalarAndAvx2Bitwise) {
  ForEachRowKernelShape([](int64_t rows, int64_t n, int64_t m) {
    Rng rng(static_cast<uint64_t>(rows * 100000 + n * 1000 + m) + 13);
    const int64_t r0 = 1;
    const int64_t r1 = r0 + rows;
    const int64_t x_stride = r1 + 2;
    const int64_t w_stride = n + 3;
    const std::vector<float> x = KernelInputs(m * x_stride, rng);
    const std::vector<float> w = KernelInputs(m * w_stride, rng);
    const std::vector<float> y0 = KernelInputs(r1 * n, rng);
    ExpectTiersBitwiseEqual(
        [&] {
          std::vector<float> y = y0;
          simd::ColumnGemm(r0, r1, m, n, x.data(), x_stride, w.data(), w_stride, y.data());
          return y;
        },
        ShapeLabel(rows, n, m));
  });
}

TEST(BlockAttentionTest, GradientCheck) {
  Rng rng(12);
  Tensor q = Tensor::Randn({6, 4}, rng, 1.0f, /*requires_grad=*/false);
  Tensor k = Tensor::Randn({6, 4}, rng, 1.0f, /*requires_grad=*/false);
  Tensor v = Tensor::Randn({6, 3}, rng, 1.0f, /*requires_grad=*/false);
  CheckGradient([&](const Tensor& x) { return Sum(Square(BlockAttention(x, k, v, 3, 0.5f))); },
                Tensor::Randn({6, 4}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Sum(Square(BlockAttention(q, x, v, 3, 0.5f))); },
                Tensor::Randn({6, 4}, rng, 1.0f));
  CheckGradient([&](const Tensor& x) { return Sum(Square(BlockAttention(q, k, x, 3, 0.5f))); },
                Tensor::Randn({6, 3}, rng, 1.0f));
}

// The tanh-form GELU in float, as the libm version computed it.
float LibmTanhGelu(float x) {
  const float inner = 0.7978845608f * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

// Gelu runs on HfExpf instead of libm tanhf; it must be at least as
// accurate as the libm form against a double-precision reference over
// [-12, 12]. Relative error is measured where the reference is at least
// 1e-30 (a normal float), so both forms' flush to zero in the far
// negative tail is excluded alike.
TEST(GeluTest, AccuracyNoWorseThanLibmTanhForm) {
  std::vector<float> grid;
  for (int i = -12 * 4096; i <= 12 * 4096; ++i) {
    grid.push_back(static_cast<float>(i) / 4096.0f);
  }
  const int64_t n = static_cast<int64_t>(grid.size());
  Tensor x = Tensor::FromData({n}, grid, /*requires_grad=*/true);
  Tensor y = Gelu(x);
  Sum(y).Backward();
  const double sqrt_2_over_pi = std::sqrt(2.0 / std::acos(-1.0));
  double gelu_err = 0.0;
  double libm_err = 0.0;
  double grad_err = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double xd = grid[static_cast<size_t>(i)];
    const double u = sqrt_2_over_pi * (xd + 0.044715 * xd * xd * xd);
    // 0.5·(1 + tanh(u)) as sigmoid(2u): no cancellation for negative u.
    const double s = 1.0 / (1.0 + std::exp(-2.0 * u));
    const double ref = xd * s;
    const double dref = s + xd * s * (1.0 - s) * 2.0 * sqrt_2_over_pi *
                                (1.0 + 3.0 * 0.044715 * xd * xd);
    grad_err = std::max(grad_err, std::fabs(x.grad()[static_cast<size_t>(i)] - dref));
    if (std::fabs(ref) < 1e-30) {
      continue;
    }
    gelu_err = std::max(gelu_err, std::fabs(y.at(i) - ref) / std::fabs(ref));
    libm_err = std::max(
        libm_err, std::fabs(LibmTanhGelu(grid[static_cast<size_t>(i)]) - ref) / std::fabs(ref));
  }
  EXPECT_LE(gelu_err, libm_err);
  EXPECT_LT(gelu_err, 2e-5);
  EXPECT_LT(grad_err, 1e-6);
}

// simd::Gelu / GeluBackward in the AVX2 tier replay the scalar tier's op
// sequence: forward values and gradients are bitwise equal at every
// width 1-129 (every n % 8 tail), extremes included.
TEST(GeluTest, ScalarAndAvx2BitwiseAtEveryWidth) {
  auto run = [](int64_t n) {
    Rng rng(500 + static_cast<uint64_t>(n));
    Tensor x = Tensor::Randn({n}, rng, 3.0f);
    const float extremes[] = {0.0f, -0.0f, -12.0f, 12.0f, -90.0f, 90.0f, 1e-20f, -9.5f};
    for (int64_t i = 0; i < n && i < 8; ++i) {
      x.data()[static_cast<size_t>(i * 7 % n)] = extremes[i];
    }
    Tensor g = Tensor::Randn({n}, rng, 1.0f, /*requires_grad=*/false);
    Tensor y = Gelu(x);
    Sum(Mul(y, g)).Backward();
    std::vector<float> out = y.data();
    out.insert(out.end(), x.grad().begin(), x.grad().end());
    return out;
  };
  for (int64_t n = 1; n <= 129; ++n) {
    SetSimdOverride(SimdLevel::kScalar);
    const std::vector<float> scalar = run(n);
    SetSimdOverride(SimdLevel::kAvx2Fma);  // Clamped to scalar without AVX2.
    const std::vector<float> vectorized = run(n);
    ClearSimdOverride();
    ExpectBitwiseEq(scalar, vectorized, ("n=" + std::to_string(n)).c_str());
  }
}

TEST(LayerNormMatMulTest, GradientCheck) {
  Rng rng(10);
  Tensor x = Tensor::Randn({4, 6}, rng, 1.0f, /*requires_grad=*/false);
  Tensor gamma = Tensor::Randn({6}, rng, 0.3f, /*requires_grad=*/false);
  Tensor beta = Tensor::Randn({6}, rng, 0.3f, /*requires_grad=*/false);
  Tensor w = Tensor::Randn({6, 5}, rng, 0.5f, /*requires_grad=*/false);
  CheckGradient(
      [&](const Tensor& a) { return Sum(Square(LayerNormMatMul(a, gamma, beta, w))); },
      Tensor::Randn({4, 6}, rng, 1.0f));
  CheckGradient(
      [&](const Tensor& g) { return Sum(Square(LayerNormMatMul(x, g, beta, w))); },
      Tensor::Randn({6}, rng, 0.3f));
  CheckGradient(
      [&](const Tensor& b) { return Sum(Square(LayerNormMatMul(x, gamma, b, w))); },
      Tensor::Randn({6}, rng, 0.3f));
  CheckGradient(
      [&](const Tensor& ww) { return Sum(Square(LayerNormMatMul(x, gamma, beta, ww))); },
      Tensor::Randn({6, 5}, rng, 0.5f));
}

// The zero short-circuit in the old MatMul made the flop count
// data-dependent; its removal must not change values or gradients for
// inputs containing exact zeros.
TEST(MatMulTest, ZeroEntriesForwardAndGradient) {
  Tensor a = Tensor::FromData({2, 3}, {0.0f, 2.0f, 0.0f, 4.0f, 0.0f, 6.0f});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 0, 10, 11, 0});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 20.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 94.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 32.0f);
  Tensor sparse = Tensor::FromData({2, 3}, {0.0f, 1.0f, 0.0f, 0.0f, -2.0f, 3.0f});
  CheckGradient([&](const Tensor& w) { return Sum(MatMul(sparse, w)); },
                Tensor::FromData({3, 2}, {0.0f, 0.5f, -1.0f, 0.0f, 2.0f, 0.0f},
                                 /*requires_grad=*/true));
}

// ---------------------------------------------------------------------------
// Kernel determinism: forward + backward results must be bitwise identical
// for every tensor.threads setting and every tile-size tuning
// (docs/KERNELS.md).
// ---------------------------------------------------------------------------

struct KernelStackResult {
  std::vector<float> loss;
  std::vector<float> dx;
  std::vector<float> dw;
  std::vector<float> dk;
  std::vector<float> dgamma;
  std::vector<float> dbeta;
  std::vector<float> dgamma2;
  std::vector<float> dbeta2;
};

// One compound forward+backward pass that drives every parallel kernel
// past the serial-work cutoff: GEMMs on plain and transposed operands, the fused
// LayerNorm+MatMul, BlockAttention, LayerNorm, Softmax, LogSoftmax, Gelu,
// Transpose, GatherRows (with duplicate indices), PickPerRow, ConcatRows,
// RowSum, Mean, and the elementwise kernels.
KernelStackResult RunKernelStack(int threads, const KernelTuning& tuning) {
  SetTensorThreads(threads);
  SetKernelTuning(tuning);
  Rng rng(77);
  Tensor x = Tensor::Randn({128, 80}, rng, 0.5f);
  Tensor w = Tensor::Randn({80, 48}, rng, 0.5f);
  Tensor k = Tensor::Randn({128, 80}, rng, 0.5f);
  Tensor gamma = Tensor::Randn({48}, rng, 0.2f);
  Tensor beta = Tensor::Randn({48}, rng, 0.2f);
  Tensor gamma2 = Tensor::Randn({80}, rng, 0.2f);
  Tensor beta2 = Tensor::Randn({80}, rng, 0.2f);

  Tensor h = LayerNorm(MatMul(x, w), gamma, beta);        // [128, 48]
  Tensor scores = MatMul(x, Transpose(k));                // [128, 128]
  Tensor mixed = MatMul(Softmax(scores), x);              // [128, 80]
  Tensor gram = MatMul(Transpose(x), Gelu(mixed));        // [80, 80]
  Tensor fused = LayerNormMatMul(mixed, gamma2, beta2, w);  // [128, 48]
  Tensor attended = BlockAttention(x, k, mixed, 4, 0.125f);  // [128, 80]
  Tensor cat = Add(ConcatRows({h, fused}), beta);         // [256, 48] + bias
  std::vector<int64_t> picks(256);
  for (size_t i = 0; i < picks.size(); ++i) {
    picks[i] = static_cast<int64_t>((i * 7) % 48);
  }
  Tensor picked = PickPerRow(cat, picks);                 // [256]
  std::vector<int64_t> gidx(60);
  for (size_t i = 0; i < gidx.size(); ++i) {
    gidx[i] = static_cast<int64_t>((i * 13) % 128);  // Duplicates included.
  }
  Tensor rows = Transpose(GatherRows(mixed, gidx));       // [80, 60]
  Tensor rs = RowSum(rows);                               // [80]
  Tensor extras =
      Add(Add(Sum(Mul(rs, AddScalar(rs, 0.5f))), Mean(Exp(Scale(picked, 0.01f)))),
          Sum(Sub(h, fused)));
  Tensor loss = Add(
      Add(Add(Sum(Square(h)), Sum(LogSoftmax(gram))), Sum(Gelu(mixed))),
      Add(extras, Sum(Square(attended))));
  loss.Backward();

  KernelStackResult result;
  result.loss = loss.data();
  result.dx = x.grad();
  result.dw = w.grad();
  result.dk = k.grad();
  result.dgamma = gamma.grad();
  result.dbeta = beta.grad();
  result.dgamma2 = gamma2.grad();
  result.dbeta2 = beta2.grad();
  // Restore process defaults for the other tests.
  SetTensorThreads(0);
  SetKernelTuning(KernelTuning{});
  return result;
}

void ExpectStackEq(const KernelStackResult& a, const KernelStackResult& b) {
  ExpectBitwiseEq(a.loss, b.loss, "loss");
  ExpectBitwiseEq(a.dx, b.dx, "dx");
  ExpectBitwiseEq(a.dw, b.dw, "dw");
  ExpectBitwiseEq(a.dk, b.dk, "dk");
  ExpectBitwiseEq(a.dgamma, b.dgamma, "dgamma");
  ExpectBitwiseEq(a.dbeta, b.dbeta, "dbeta");
  ExpectBitwiseEq(a.dgamma2, b.dgamma2, "dgamma2");
  ExpectBitwiseEq(a.dbeta2, b.dbeta2, "dbeta2");
}

TEST(KernelDeterminismTest, BitwiseInvariantAcrossThreadCounts) {
  const KernelStackResult reference = RunKernelStack(1, KernelTuning{});
  EXPECT_TRUE(std::isfinite(reference.loss[0]));
  for (int threads : {2, 3, 8}) {
    ExpectStackEq(reference, RunKernelStack(threads, KernelTuning{}));
  }
}

TEST(KernelDeterminismTest, BitwiseInvariantAcrossTileSizes) {
  const KernelStackResult reference = RunKernelStack(1, KernelTuning{});
  std::vector<KernelTuning> tunings;
  {
    KernelTuning tiny;  // Degenerate one-row / tiny-block chunks.
    tiny.gemm_row_grain = 1;
    tiny.gemm_k_block = 3;
    tiny.row_grain = 1;
    tiny.elem_grain = 7;
    tunings.push_back(tiny);
    KernelTuning odd;
    odd.gemm_row_grain = 5;
    odd.gemm_k_block = 64;
    odd.row_grain = 9;
    odd.elem_grain = 1000;
    tunings.push_back(odd);
    KernelTuning huge;  // Single chunk for everything.
    huge.gemm_row_grain = 1 << 20;
    huge.gemm_k_block = 1 << 20;
    huge.row_grain = 1 << 20;
    huge.elem_grain = 1 << 20;
    tunings.push_back(huge);
  }
  for (const KernelTuning& tuning : tunings) {
    for (int threads : {1, 2, 8}) {
      ExpectStackEq(reference, RunKernelStack(threads, tuning));
    }
  }
}

// The SIMD tier must be bitwise-invisible: forcing the scalar fallback
// (the same path `HF_SIMD=off` selects) across the full thread x tile
// cross-product must reproduce the default tier exactly, values and
// gradients alike. On hardware without AVX2 the override is a no-op and
// this degenerates to scalar-vs-scalar, which is trivially green.
TEST(KernelDeterminismTest, BitwiseInvariantAcrossSimdLevels) {
  const KernelStackResult reference = RunKernelStack(1, KernelTuning{});
  KernelTuning odd;
  odd.gemm_row_grain = 5;
  odd.gemm_k_block = 64;
  odd.row_grain = 9;
  odd.elem_grain = 1000;
  for (const KernelTuning& tuning : {KernelTuning{}, odd}) {
    for (int threads : {1, 3, 8}) {
      SetSimdOverride(SimdLevel::kScalar);
      const KernelStackResult scalar_run = RunKernelStack(threads, tuning);
      ClearSimdOverride();
      ExpectStackEq(reference, scalar_run);
    }
  }
}

// Per-op SIMD<->scalar sweep over odd / unaligned widths: every width
// exercises the 8-lane vector tails (n % 8 in 0..7) plus the sub-width
// (n < 8) degenerate case. Each vectorized op appears in the loss so its
// forward AND backward kernels are compared bitwise across tiers.
TEST(KernelDeterminismTest, SimdScalarBitwisePerOpTailSweep) {
  auto run_all = [](int64_t n) {
    Rng rng(1000 + n);
    Tensor a = Tensor::Randn({3, n}, rng, 0.8f);
    Tensor b = Tensor::Randn({3, n}, rng, 0.8f);
    Tensor bias = Tensor::Randn({n}, rng, 0.5f);
    Tensor gamma = Tensor::Randn({n}, rng, 0.3f);
    Tensor beta = Tensor::Randn({n}, rng, 0.3f);
    Tensor w = Tensor::Randn({n, 5}, rng, 0.5f);

    Tensor t1 = Sum(Square(MatMul(a, w)));
    Tensor t2 = Sum(Gelu(MatMul(a, Transpose(b))));
    Tensor t3 = Sum(Square(MatMul(Transpose(a), b)));
    Tensor t4 = Sum(Mul(LayerNorm(a, gamma, beta), b));
    Tensor t5 = Sum(LayerNormMatMul(a, gamma, beta, w));
    Tensor t6 = Sum(Mul(LogSoftmax(a), Softmax(b)));
    Tensor t7 = Sum(Exp(Scale(a, 0.1f)));
    Tensor t8 = Sum(Sub(Add(a, bias), Mul(a, b)));
    Tensor t9 = Sum(AddScalar(Scale(Add(a, b), -0.5f), 0.25f));
    Tensor t10 = Mean(Square(a));
    Tensor t11 = Sum(Square(RowSum(Transpose(a))));
    Tensor t12 = Sum(SliceRows(ConcatRows({a, b}), 1, 5));
    const std::vector<int64_t> gather_idx = {0, 2, 1, 2, 0};  // Duplicates.
    Tensor t13 = Sum(Square(GatherRows(b, gather_idx)));
    std::vector<int64_t> pick_idx(3);
    for (size_t i = 0; i < pick_idx.size(); ++i) {
      pick_idx[i] = static_cast<int64_t>((i * 5) % n);
    }
    Tensor t14 = Sum(PickPerRow(a, pick_idx));
    Tensor t15 = Sum(Square(BlockAttention(a, b, Gelu(b), 3, 0.3f)));
    Tensor loss = t1;
    for (const Tensor& t : {t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15}) {
      loss = Add(loss, t);
    }
    loss.Backward();

    std::vector<float> out = loss.data();
    for (const Tensor* t : {&a, &b, &bias, &gamma, &beta, &w}) {
      out.insert(out.end(), t->grad().begin(), t->grad().end());
    }
    return out;
  };
  for (int64_t n : {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 129}) {
    SetSimdOverride(SimdLevel::kScalar);
    const std::vector<float> scalar = run_all(n);
    SetSimdOverride(SimdLevel::kAvx2Fma);  // Clamped to scalar without AVX2.
    const std::vector<float> vectorized = run_all(n);
    ClearSimdOverride();
    const std::string label = "n=" + std::to_string(n);
    ExpectBitwiseEq(scalar, vectorized, label.c_str());
  }
}

// Kernels invoked from pool tasks (the ModelWorkerGroup dispatch path)
// must fall back to caller-runs instead of submitting to the pool and
// blocking — saturating the shared pool with kernel calls must neither
// deadlock nor change results.
TEST(KernelDeterminismTest, CallerRunsOnPoolThreadsMatchesMainThread) {
  SetTensorThreads(8);
  Rng rng(21);
  const Tensor a = Tensor::Randn({96, 64}, rng, 1.0f, /*requires_grad=*/false);
  const Tensor b = Tensor::Randn({64, 96}, rng, 1.0f, /*requires_grad=*/false);
  const std::vector<float> expected = MatMul(a, b).data();
  const int tasks = 2 * ThreadPool::Shared().size();
  std::vector<std::vector<float>> results(static_cast<size_t>(tasks));
  ThreadPool::Shared().ParallelFor(tasks, [&](int t) {
    EXPECT_TRUE(ThreadPool::OnPoolThread());
    results[static_cast<size_t>(t)] = MatMul(a, b).data();
  });
  SetTensorThreads(0);
  EXPECT_FALSE(ThreadPool::OnPoolThread());
  for (const std::vector<float>& result : results) {
    ExpectBitwiseEq(expected, result, "pool-thread matmul");
  }
}

// ---------------------------------------------------------------------------
// Grad mode (NoGradScope).
// ---------------------------------------------------------------------------

// Every op's forward over one set of grad-requiring inputs, each result
// kept so its node can be inspected.
std::vector<Tensor> EveryOpForward(const Tensor& x, const Tensor& w, const Tensor& k,
                                   const Tensor& gamma, const Tensor& beta) {
  std::vector<Tensor> out;
  const auto keep = [&out](Tensor t) {
    out.push_back(t);
    return t;
  };
  const Tensor h = keep(MatMul(x, w));                               // [16, 8]
  keep(LayerNorm(h, gamma, beta));
  keep(LayerNormMatMul(x, Tensor::Full({12}, 1.0f), Tensor::Zeros({12}), w));
  keep(BlockAttention(x, k, x, 4, 0.5f));
  keep(Add(h, h));
  keep(Add(h, beta));
  keep(Sub(h, h));
  keep(Mul(h, h));
  keep(Scale(h, 0.5f));
  keep(AddScalar(h, 0.5f));
  keep(Neg(h));
  keep(Exp(h));
  keep(Sigmoid(h));
  keep(Softplus(h));
  keep(Square(h));
  keep(Tanh(h));
  keep(Gelu(h));
  keep(Minimum(h, Scale(h, 0.5f)));
  keep(Maximum(h, Scale(h, 0.5f)));
  keep(Clamp(h, -0.1f, 0.1f));
  keep(Sum(h));
  keep(Mean(h));
  keep(RowSum(h));
  keep(Transpose(h));
  keep(SliceRows(h, 2, 9));
  keep(LogSoftmax(h));
  keep(Softmax(h));
  keep(GatherRows(w, {0, 3, 3, 11}));
  keep(PickPerRow(h, std::vector<int64_t>(16, 5)));
  keep(Reshape(h, {128}));
  keep(ConcatRows({h, h}));
  return out;
}

TEST(NoGradScopeTest, ResultsWireNoGraphAndMatchGradModeBitwise) {
  Rng rng(5);
  const Tensor x = Tensor::Randn({16, 12}, rng, 0.5f);
  const Tensor w = Tensor::Randn({12, 8}, rng, 0.5f);
  const Tensor k = Tensor::Randn({16, 12}, rng, 0.5f);
  const Tensor gamma = Tensor::Randn({8}, rng, 0.2f);
  const Tensor beta = Tensor::Randn({8}, rng, 0.2f);
  Counter& nodes = MetricsRegistry::Global().GetCounter("tensor.autograd_nodes_total");

  const double before_grad = nodes.Value();
  const std::vector<Tensor> with_grad = EveryOpForward(x, w, k, gamma, beta);
  // Every op wires its result (the intermediate Scale nodes included).
  EXPECT_GE(nodes.Value() - before_grad, static_cast<double>(with_grad.size()));
  for (const Tensor& t : with_grad) {
    EXPECT_TRUE(t.requires_grad());
    EXPECT_FALSE(t.node()->parents.empty());
    EXPECT_TRUE(static_cast<bool>(t.node()->backward));
  }

  std::vector<Tensor> without_grad;
  const double before_no_grad = nodes.Value();
  {
    NoGradScope no_grad;
    EXPECT_FALSE(GradEnabled());
    without_grad = EveryOpForward(x, w, k, gamma, beta);
  }
  EXPECT_TRUE(GradEnabled());
  EXPECT_EQ(nodes.Value(), before_no_grad);
  ASSERT_EQ(without_grad.size(), with_grad.size());
  for (size_t i = 0; i < with_grad.size(); ++i) {
    const Tensor& t = without_grad[i];
    EXPECT_FALSE(t.requires_grad()) << "op " << i;
    EXPECT_TRUE(t.node()->parents.empty()) << "op " << i;
    EXPECT_FALSE(static_cast<bool>(t.node()->backward)) << "op " << i;
    EXPECT_EQ(t.shape(), with_grad[i].shape()) << "op " << i;
    ExpectBitwiseEq(with_grad[i].data(), t.data(), ("op " + std::to_string(i)).c_str());
  }
  // The inputs themselves are untouched: a later grad-mode pass still
  // trains them.
  Tensor loss = Sum(MatMul(x, w));
  loss.Backward();
  EXPECT_EQ(w.grad().size(), w.data().size());
}

TEST(NoGradScopeTest, NestedScopesRestoreThePreviousMode) {
  EXPECT_TRUE(GradEnabled());
  {
    NoGradScope outer;
    EXPECT_FALSE(GradEnabled());
    {
      NoGradScope inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());  // The inner scope restored the outer's mode.
  }
  EXPECT_TRUE(GradEnabled());
}

TEST(NoGradScopeTest, PoolTaskDoesNotInheritTheScope) {
  Rng rng(8);
  const Tensor a = Tensor::Randn({4, 4}, rng, 1.0f);
  const Tensor b = Tensor::Randn({4, 4}, rng, 1.0f);
  NoGradScope no_grad;
  ASSERT_FALSE(GradEnabled());
  bool task_grad_enabled = false;
  bool task_wired = false;
  bool task_scope_closed_cleanly = false;
  ThreadPool::Shared()
      .Submit([&] {
        task_grad_enabled = GradEnabled();
        task_wired = MatMul(a, b).requires_grad();
        {
          NoGradScope task_scope;
          task_wired = task_wired && !MatMul(a, b).requires_grad();
        }
        task_scope_closed_cleanly = GradEnabled();
      })
      .get();
  EXPECT_TRUE(task_grad_enabled);
  EXPECT_TRUE(task_wired);
  EXPECT_TRUE(task_scope_closed_cleanly);
  EXPECT_FALSE(GradEnabled());  // The task's scope never touched this thread's.
  EXPECT_FALSE(MatMul(a, b).requires_grad());
}

}  // namespace
}  // namespace hybridflow
