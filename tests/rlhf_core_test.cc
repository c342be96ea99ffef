#include <gtest/gtest.h>

#include <cmath>

#include "src/rlhf/advantage.h"
#include "src/rlhf/dataflow.h"
#include "src/rlhf/losses.h"

namespace hybridflow {
namespace {

// --- Shaped rewards -----------------------------------------------------------

TEST(ShapedRewardsTest, KlPenaltyPerTokenSampleRewardAtEnd) {
  std::vector<float> log_probs = {-1.0f, -2.0f};
  std::vector<float> ref = {-1.5f, -1.5f};
  std::vector<float> rewards = ShapedTokenRewards(log_probs, ref, 3.0f, 0.1f);
  // token 0: -0.1 * (-1.0 + 1.5) = -0.05; token 1: -0.1 * (-0.5) = 0.05 + 3.
  EXPECT_NEAR(rewards[0], -0.05f, 1e-6);
  EXPECT_NEAR(rewards[1], 3.05f, 1e-6);
}

TEST(ShapedRewardsTest, ZeroKlCoefLeavesOnlySampleReward) {
  std::vector<float> rewards = ShapedTokenRewards({-1, -2, -3}, {0, 0, 0}, 1.0f, 0.0f);
  EXPECT_FLOAT_EQ(rewards[0], 0.0f);
  EXPECT_FLOAT_EQ(rewards[1], 0.0f);
  EXPECT_FLOAT_EQ(rewards[2], 1.0f);
}

// --- GAE ------------------------------------------------------------------------

TEST(GaeTest, MatchesHandComputedValues) {
  // gamma=1, lam=1: advantage_t = sum_{k>=t} r_k - V_t (Monte Carlo).
  std::vector<float> rewards = {1.0f, 0.0f, 2.0f};
  std::vector<float> values = {0.5f, 0.5f, 0.5f};
  std::vector<float> advantages;
  std::vector<float> returns;
  GaeFromRewards(rewards, values, 1.0f, 1.0f, &advantages, &returns);
  EXPECT_NEAR(advantages[2], 2.0f - 0.5f, 1e-6);
  EXPECT_NEAR(advantages[1], (0.0f + 2.0f) - 0.5f, 1e-6);
  EXPECT_NEAR(advantages[0], (1.0f + 0.0f + 2.0f) - 0.5f, 1e-6);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(returns[i], advantages[i] + values[i], 1e-6);
  }
}

TEST(GaeTest, LambdaZeroIsOneStepTd) {
  std::vector<float> rewards = {1.0f, 1.0f};
  std::vector<float> values = {0.0f, 0.5f};
  std::vector<float> advantages;
  std::vector<float> returns;
  GaeFromRewards(rewards, values, 1.0f, 0.0f, &advantages, &returns);
  EXPECT_NEAR(advantages[0], 1.0f + 0.5f - 0.0f, 1e-6);  // r + V1 - V0.
  EXPECT_NEAR(advantages[1], 1.0f + 0.0f - 0.5f, 1e-6);
}

TEST(GaeTest, PerfectValuesGiveZeroAdvantage) {
  // With V matching the exact return, every advantage is 0.
  std::vector<float> rewards = {1.0f, 1.0f, 1.0f};
  std::vector<float> values = {3.0f, 2.0f, 1.0f};
  std::vector<float> advantages;
  std::vector<float> returns;
  GaeFromRewards(rewards, values, 1.0f, 0.95f, &advantages, &returns);
  for (float advantage : advantages) {
    EXPECT_NEAR(advantage, 0.0f, 1e-6);
  }
}

// --- ComputeAdvantages across estimators -----------------------------------------

DataBatch ExperienceBatch() {
  DataBatch batch;
  batch.SetTokens("prompts", {{1, 2}, {3, 4}, {5, 6}, {0, 1}});
  batch.SetTokens("responses", {{2, 3}, {4, 5}, {6, 7}, {1, 2}});
  batch.SetFloat("log_probs", {{-1, -1}, {-1, -1}, {-2, -2}, {-1, -2}});
  batch.SetFloat("ref_log_probs", {{-1, -1}, {-1, -1}, {-2, -2}, {-1, -2}});
  batch.SetFloat("rewards", {{1.0f}, {0.0f}, {2.0f}, {1.0f}});
  return batch;
}

TEST(ComputeAdvantagesTest, GaeAddsAdvantagesAndReturns) {
  DataBatch batch = ExperienceBatch();
  batch.SetFloat("values", {{0, 0}, {0, 0}, {0, 0}, {0, 0}});
  AdvantageConfig config;
  config.estimator = AdvantageEstimator::kGae;
  config.kl_coef = 0.0f;
  DataBatch out = ComputeAdvantages(batch, config);
  ASSERT_TRUE(out.HasFloat("advantages"));
  ASSERT_TRUE(out.HasFloat("returns"));
  // Zero values, reward only at the last token: advantage at last token =
  // sample reward; earlier tokens see it through lambda discounting.
  EXPECT_NEAR(out.Float("advantages")[0][1], 1.0f, 1e-6);
  EXPECT_NEAR(out.Float("advantages")[0][0], 0.95f, 1e-6);
}

TEST(ComputeAdvantagesTest, RemaxSubtractsBaseline) {
  DataBatch batch = ExperienceBatch();
  batch.SetFloat("baseline_rewards", {{0.5f}, {0.5f}, {0.5f}, {0.5f}});
  AdvantageConfig config;
  config.estimator = AdvantageEstimator::kRemax;
  config.kl_coef = 0.0f;
  DataBatch out = ComputeAdvantages(batch, config);
  // Row 0: reward 1.0, baseline 0.5 -> every token advantage 0.5.
  EXPECT_NEAR(out.Float("advantages")[0][0], 0.5f, 1e-6);
  EXPECT_NEAR(out.Float("advantages")[0][1], 0.5f, 1e-6);
  // Row 1: reward 0.0 -> advantage -0.5.
  EXPECT_NEAR(out.Float("advantages")[1][1], -0.5f, 1e-6);
}

TEST(ComputeAdvantagesTest, GrpoNormalizesWithinGroups) {
  DataBatch batch = ExperienceBatch();
  AdvantageConfig config;
  config.estimator = AdvantageEstimator::kGrpo;
  config.kl_coef = 0.0f;
  config.group_size = 2;
  DataBatch out = ComputeAdvantages(batch, config);
  // Group 1 = rows {0,1} rewards {1,0}: normalized to ~{+1,-1}.
  EXPECT_GT(out.Float("advantages")[0][1], 0.9f);
  EXPECT_LT(out.Float("advantages")[1][1], -0.9f);
  // Group 2 = rows {2,3} rewards {2,1}: same normalized spread.
  EXPECT_GT(out.Float("advantages")[2][1], 0.9f);
}

TEST(ComputeAdvantagesTest, SafeRlhfSubtractsCostAdvantage) {
  DataBatch batch = ExperienceBatch();
  batch.SetFloat("values", {{0, 0}, {0, 0}, {0, 0}, {0, 0}});
  batch.SetFloat("cost_values", {{0, 0}, {0, 0}, {0, 0}, {0, 0}});
  batch.SetFloat("costs", {{1.0f}, {0.0f}, {0.0f}, {0.0f}});
  AdvantageConfig config;
  config.estimator = AdvantageEstimator::kGae;
  config.kl_coef = 0.0f;
  config.cost_lambda = 0.5f;
  DataBatch with_cost = ComputeAdvantages(batch, config);
  config.cost_lambda = 0.0f;
  batch.SetFloat("costs", {{0.0f}, {0.0f}, {0.0f}, {0.0f}});
  DataBatch without_cost = ComputeAdvantages(batch, config);
  // Row 0 had cost 1.0: its advantage must drop by lambda * cost GAE.
  EXPECT_LT(with_cost.Float("advantages")[0][1], without_cost.Float("advantages")[0][1]);
  EXPECT_TRUE(with_cost.HasFloat("cost_returns"));
}

// --- Losses -----------------------------------------------------------------------

TEST(PolicyLossTest, PpoGradientPushesTowardPositiveAdvantage) {
  Tensor log_probs = Tensor::FromData({2}, {-1.0f, -1.0f}, true);
  Tensor old_log_probs = Tensor::FromData({2}, {-1.0f, -1.0f});
  Tensor advantages = Tensor::FromData({2}, {1.0f, -1.0f});
  PolicyLossConfig config;
  Tensor loss = PolicyLoss(log_probs, old_log_probs, advantages, config);
  loss.Backward();
  // Positive advantage -> increase log-prob (negative gradient of loss).
  EXPECT_LT(log_probs.grad()[0], 0.0f);
  EXPECT_GT(log_probs.grad()[1], 0.0f);
}

TEST(PolicyLossTest, ClippingStopsGradientWhenRatioTooLarge) {
  // Ratio = exp(logp - old) = e^1 ~ 2.7 >> 1+eps with positive advantage:
  // clipped branch is active and the gradient vanishes.
  Tensor log_probs = Tensor::FromData({1}, {0.0f}, true);
  Tensor old_log_probs = Tensor::FromData({1}, {-1.0f});
  Tensor advantages = Tensor::FromData({1}, {1.0f});
  PolicyLossConfig config;
  config.clip_eps = 0.2f;
  Tensor loss = PolicyLoss(log_probs, old_log_probs, advantages, config);
  loss.Backward();
  EXPECT_NEAR(log_probs.grad()[0], 0.0f, 1e-6);
}

TEST(PolicyLossTest, ReinforceIsMinusMeanLogProbTimesAdvantage) {
  Tensor log_probs = Tensor::FromData({2}, {-1.0f, -2.0f}, true);
  Tensor old_log_probs = Tensor::FromData({2}, {-1.0f, -2.0f});
  Tensor advantages = Tensor::FromData({2}, {2.0f, 4.0f});
  PolicyLossConfig config;
  config.kind = PolicyLossKind::kReinforce;
  Tensor loss = PolicyLoss(log_probs, old_log_probs, advantages, config);
  EXPECT_NEAR(loss.item(), -(-1.0f * 2.0f + -2.0f * 4.0f) / 2.0f, 1e-6);
  loss.Backward();
  EXPECT_NEAR(log_probs.grad()[0], -1.0f, 1e-6);  // -adv/2.
  EXPECT_NEAR(log_probs.grad()[1], -2.0f, 1e-6);
}

TEST(ValueLossTest, IsHalfMseWithoutClipping) {
  Tensor values = Tensor::FromData({2}, {1.0f, 2.0f}, true);
  Tensor old_values = Tensor::FromData({2}, {1.0f, 2.0f});
  Tensor returns = Tensor::FromData({2}, {2.0f, 2.0f});
  ValueLossConfig config;
  config.clip_eps = 0.0f;
  Tensor loss = ValueLoss(values, old_values, returns, config);
  EXPECT_NEAR(loss.item(), 0.5f * (1.0f + 0.0f) / 2.0f, 1e-6);
}

TEST(ValueLossTest, ClippingBoundsTheUpdate) {
  // Value moved far from old_values: the clipped branch dominates.
  Tensor values = Tensor::FromData({1}, {5.0f}, true);
  Tensor old_values = Tensor::FromData({1}, {0.0f});
  Tensor returns = Tensor::FromData({1}, {10.0f});
  ValueLossConfig config;
  config.clip_eps = 0.2f;
  Tensor clipped_loss = ValueLoss(values, old_values, returns, config);
  // max(unclipped, clipped) keeps the larger penalty: unclipped (5-10)^2=25,
  // clipped (0.2-10)^2=96.04 -> 0.5*96.04.
  EXPECT_NEAR(clipped_loss.item(), 0.5f * 96.04f, 1e-3);
}

TEST(DataflowTableTest, KeysParseBackAndActorsComeFirst) {
  for (RlhfAlgorithm algorithm : {RlhfAlgorithm::kPpo, RlhfAlgorithm::kRemax,
                                  RlhfAlgorithm::kSafeRlhf, RlhfAlgorithm::kGrpo}) {
    const RlhfDataflow& dataflow = DataflowOf(algorithm);
    RlhfAlgorithm parsed = RlhfAlgorithm::kPpo;
    ASSERT_TRUE(ParseRlhfAlgorithm(dataflow.key, &parsed)) << dataflow.key;
    EXPECT_EQ(parsed, algorithm);
    EXPECT_STREQ(RlhfAlgorithmName(algorithm), dataflow.name);
    ASSERT_FALSE(dataflow.roles.empty());
    EXPECT_EQ(dataflow.roles.front(), RlhfRole::kActor) << dataflow.name;
    EXPECT_TRUE(dataflow.Has(RlhfRole::kReference) && dataflow.Has(RlhfRole::kReward));
    EXPECT_EQ(dataflow.Has(RlhfRole::kCritic), dataflow.estimator == AdvantageEstimator::kGae);
  }
  RlhfAlgorithm untouched = RlhfAlgorithm::kGrpo;
  EXPECT_FALSE(ParseRlhfAlgorithm("PPO", &untouched));
  EXPECT_EQ(untouched, RlhfAlgorithm::kGrpo);
  EXPECT_EQ(DataflowOf(RlhfAlgorithm::kRemax).generation_passes, 2);
}

TEST(PretrainLossTest, IsNegativeMeanLogProb) {
  Tensor log_probs = Tensor::FromData({2}, {-1.0f, -3.0f}, true);
  EXPECT_NEAR(PretrainLoss(log_probs).item(), 2.0f, 1e-6);
}

}  // namespace
}  // namespace hybridflow
