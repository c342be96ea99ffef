#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/rlhf/losses.h"
#include "src/workers/model_workers.h"

namespace hybridflow {
namespace {

RealComputeOptions SmallReal(uint64_t seed = 11) {
  RealComputeOptions real;
  real.enabled = true;
  real.seed = seed;
  real.task = AlignmentTask{};
  real.task.prompt_len = 4;
  real.task.response_len = 4;
  real.net.vocab_size = real.task.vocab_size;
  real.net.context_window = 3;
  real.net.embed_dim = 8;
  real.net.hidden_dim = 16;
  return real;
}

WorkerGroupOptions ActorGroupOptions(const ParallelConfig& cfg) {
  WorkerGroupOptions options;
  options.name = "actor";
  options.model = ModelSpec::Llama7B();
  options.trainable = true;
  options.train_cfg = cfg;
  return options;
}

DataBatch Prompts(int64_t rows, const AlignmentTask& task, uint64_t seed) {
  PromptDataset dataset(task, seed);
  return dataset.NextBatch(rows);
}

class ActorWorkerTest : public ::testing::Test {
 protected:
  ActorWorkerTest() : controller_(ClusterSpec::WithGpus(8)) {
    pool_ = controller_.CreatePoolRange("pool", 0, 8);
    ActorOptions actor_options;
    actor_options.gen = GenParallelConfig{1, 2};
    actor_options.engine_mode = ActorEngineMode::kHybridFlow;
    actor_ = std::make_unique<ActorWorkerGroup>(ActorGroupOptions({1, 4, 2}), pool_,
                                                &controller_, SmallReal(), actor_options);
    workload_.global_batch = 64;
    workload_.prompt_len = 256;
    workload_.response_len = 256;
  }

  Controller controller_;
  std::shared_ptr<ResourcePool> pool_;
  std::unique_ptr<ActorWorkerGroup> actor_;
  RlhfWorkloadSpec workload_;
};

TEST_F(ActorWorkerTest, GenerateSequencesProducesResponsesAndLogProbs) {
  BatchFuture prompts = BatchFuture::Immediate(Prompts(16, actor_->real().task, 1));
  BatchFuture out = actor_->GenerateSequences(prompts, workload_);
  ASSERT_EQ(out.data.batch_size(), 16);
  EXPECT_TRUE(out.data.HasTokens("responses"));
  EXPECT_TRUE(out.data.HasFloat("log_probs"));
  for (const std::vector<int64_t>& response : out.data.Tokens("responses")) {
    EXPECT_EQ(response.size(), 4u);
  }
  // Log-probs must be valid (<= 0).
  for (const std::vector<float>& row : out.data.Float("log_probs")) {
    for (float lp : row) {
      EXPECT_LE(lp, 1e-5f);
    }
  }
  EXPECT_GT(out.ready_time, 0.0);
}

TEST_F(ActorWorkerTest, GenerationSchedulesReshardAndGenerateSpans) {
  BatchFuture prompts = BatchFuture::Immediate(Prompts(8, actor_->real().task, 1));
  actor_->GenerateSequences(prompts, workload_);
  bool saw_reshard = false;
  bool saw_generate = false;
  for (const TraceSpan& span : controller_.cluster().trace()) {
    saw_reshard |= span.category == "reshard";
    saw_generate |= span.category == "generate";
  }
  EXPECT_TRUE(saw_reshard);  // tg=2 < tp=4 requires resharding.
  EXPECT_TRUE(saw_generate);
  EXPECT_GT(actor_->last_transition_seconds(), 0.0);
}

TEST_F(ActorWorkerTest, GreedyGenerationIsDeterministic) {
  BatchFuture prompts = BatchFuture::Immediate(Prompts(8, actor_->real().task, 2));
  BatchFuture a = actor_->GenerateSequences(prompts, workload_, /*do_sample=*/false);
  BatchFuture b = actor_->GenerateSequences(prompts, workload_, /*do_sample=*/false);
  EXPECT_EQ(a.data.Tokens("responses"), b.data.Tokens("responses"));
}

TEST_F(ActorWorkerTest, KvCacheBuffersAreReleasedAfterGeneration) {
  BatchFuture prompts = BatchFuture::Immediate(Prompts(8, actor_->real().task, 3));
  actor_->GenerateSequences(prompts, workload_);
  for (DeviceId device : pool_->devices()) {
    EXPECT_DOUBLE_EQ(controller_.cluster().memory(device).UsedByTag("actor_kvcache"), 0.0);
    EXPECT_DOUBLE_EQ(controller_.cluster().memory(device).UsedByTag("actor_gen_weights"),
                     0.0);
  }
}

TEST_F(ActorWorkerTest, UpdateActorImprovesObjectiveOnFixedBatch) {
  // Build an experience batch with hand-made positive advantages for
  // coherent tokens; repeated updates must raise their log-probs.
  BatchFuture prompts = BatchFuture::Immediate(Prompts(32, actor_->real().task, 4));
  BatchFuture experience = actor_->GenerateSequences(prompts, workload_);
  DataBatch batch = experience.data;
  const AlignmentTask& task = actor_->real().task;
  DataBatch::FloatColumn advantages;
  for (size_t i = 0; i < static_cast<size_t>(batch.batch_size()); ++i) {
    advantages.push_back(task.ResponseRewards(batch.Tokens("prompts")[i],
                                              batch.Tokens("responses")[i]));
  }
  batch.SetFloat("advantages", advantages);

  auto mean_coherent_logp = [&]() {
    BatchFuture probe;
    probe.data = batch;
    BatchFuture out = actor_->ComputeLogProb(probe, workload_, "probe_log_probs");
    double total = 0.0;
    int64_t count = 0;
    const auto& log_probs = out.data.Float("probe_log_probs");
    for (size_t i = 0; i < advantages.size(); ++i) {
      for (size_t k = 0; k < advantages[i].size(); ++k) {
        if (advantages[i][k] > 0.5f) {
          total += log_probs[i][k];
          count += 1;
        }
      }
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };

  const double before = mean_coherent_logp();
  for (int step = 0; step < 10; ++step) {
    BatchFuture minibatch;
    minibatch.data = batch;
    actor_->UpdateActor(minibatch, workload_);
  }
  const double after = mean_coherent_logp();
  EXPECT_GT(after, before);
}

TEST_F(ActorWorkerTest, ComputeLossReturnsPretrainNll) {
  BatchFuture pretrain = BatchFuture::Immediate(Prompts(8, actor_->real().task, 9));
  BatchFuture out = actor_->ComputeLoss(pretrain, workload_);
  ASSERT_TRUE(out.data.HasFloat("pretrain_loss"));
  // NLL of a near-uniform random policy over V=16 tokens is ~log(16).
  EXPECT_GT(out.data.Float("pretrain_loss")[0][0], 1.0f);
  EXPECT_LT(out.data.Float("pretrain_loss")[0][0], 5.0f);
}

TEST_F(ActorWorkerTest, ComputeLossEqualsPretrainLossOfEachShard) {
  // Each DP rank (dp=2) scores its chunk of the corpus: every proper prefix,
  // as its last context_window tokens left-padded with 0, predicts the next
  // token. Rebuilt here by hand and scored with the same net.
  const DataBatch corpus = Prompts(8, actor_->real().task, 9);
  const BatchFuture out = actor_->ComputeLoss(BatchFuture::Immediate(corpus), workload_);
  const std::vector<DataBatch> shards = corpus.SplitChunks(2);
  ASSERT_EQ(out.data.Float("pretrain_loss").size(), shards.size());
  const size_t window = static_cast<size_t>(actor_->real().net.context_window);
  for (size_t s = 0; s < shards.size(); ++s) {
    std::vector<std::vector<int64_t>> contexts;
    std::vector<int64_t> targets;
    for (const std::vector<int64_t>& sequence : shards[s].Tokens("prompts")) {
      for (size_t k = 1; k < sequence.size(); ++k) {
        std::vector<int64_t> context(window, 0);
        for (size_t j = 0; j < std::min(k, window); ++j) {
          context[window - 1 - j] = sequence[k - 1 - j];
        }
        contexts.push_back(std::move(context));
        targets.push_back(sequence[k]);
      }
    }
    const float want = PretrainLoss(actor_->net().LogProb(contexts, targets)).item();
    EXPECT_EQ(out.data.Float("pretrain_loss")[s][0], want) << "shard " << s;
  }
}

TEST_F(ActorWorkerTest, EntropyBonusKeepsPolicyFlatter) {
  // Two identical actors trained on the same sharp-advantage batch; the
  // entropy-regularized one must keep higher policy entropy.
  auto train = [&](float entropy_coef) {
    Controller controller(ClusterSpec::WithGpus(8));
    auto pool = controller.CreatePoolRange("pool", 0, 8);
    ActorOptions actor_options;
    actor_options.gen = GenParallelConfig{1, 2};
    RealComputeOptions real = SmallReal(33);
    real.adam.lr = 0.02f;
    ActorWorkerGroup actor(ActorGroupOptions({1, 4, 2}), pool, &controller, real,
                           actor_options);
    // Hand-built experience rewarding token 3 everywhere: REINFORCE drives
    // the policy to collapse onto it unless the entropy bonus resists.
    DataBatch batch;
    DataBatch::TokenColumn prompts_col(16, {1, 2, 3, 4});
    DataBatch::TokenColumn responses(16, {3, 3, 3, 3});
    DataBatch::FloatColumn old_lp(16, std::vector<float>(4, -2.77f));
    DataBatch::FloatColumn advantages(16, std::vector<float>(4, 3.0f));
    batch.SetTokens("prompts", prompts_col);
    batch.SetTokens("responses", responses);
    batch.SetFloat("log_probs", old_lp);
    batch.SetFloat("advantages", advantages);
    ActorUpdateConfig config;
    config.loss.kind = PolicyLossKind::kReinforce;
    config.entropy_coef = entropy_coef;
    for (int step = 0; step < 40; ++step) {
      BatchFuture minibatch;
      minibatch.data = batch;
      actor.UpdateActor(minibatch, workload_, config);
    }
    // Measure mean entropy of the resulting policy on fresh contexts.
    std::vector<std::vector<int64_t>> contexts;
    for (int64_t last = 0; last < actor.real().net.vocab_size; ++last) {
      contexts.push_back({0, 1, last});
    }
    return MeanEntropy(actor.net().Forward(contexts)).item();
  };
  const double without = train(0.0f);
  const double with_bonus = train(1.0f);
  EXPECT_GT(with_bonus, without + 0.05);
}

TEST_F(ActorWorkerTest, MemoryRegisteredOnConstruction) {
  // 7B trainable, mp = 4: 18 * N / 4 per GPU.
  const double expected = 18.0 * ModelSpec::Llama7B().NumParams() / 4.0;
  EXPECT_NEAR(controller_.cluster().memory(0).UsedByTag("actor"), expected, 1e6);
}

TEST(WorkerGroupTest, ColocatedGroupsTimeShare) {
  Controller controller(ClusterSpec::WithGpus(4));
  auto pool = controller.CreatePoolRange("shared", 0, 4);
  RealComputeOptions real = SmallReal();
  real.enabled = false;

  WorkerGroupOptions reward_options;
  reward_options.name = "reward";
  reward_options.model = ModelSpec::Llama7B();
  reward_options.scalar_head = true;
  reward_options.train_cfg = {1, 1, 4};
  RewardWorkerGroup reward(reward_options, pool, &controller, real,
                           RewardSource::kRuleReward);

  WorkerGroupOptions ref_options;
  ref_options.name = "reference";
  ref_options.model = ModelSpec::Llama7B();
  ref_options.train_cfg = {1, 1, 4};
  ReferenceWorkerGroup reference(ref_options, pool, &controller, real, nullptr);

  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  BatchFuture input;
  BatchFuture r1 = reward.ComputeReward(input, workload);
  BatchFuture r2 = reference.ComputeRefLogProb(input, workload);
  // Same pool: the second op starts only after the first finishes.
  EXPECT_GE(r2.ready_time, r1.ready_time);
  const auto& trace = controller.cluster().trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_GE(trace[1].start, trace[0].end);
}

TEST(WorkerGroupTest, DisjointPoolsOverlapInTime) {
  Controller controller(ClusterSpec::WithGpus(8));
  auto pool_a = controller.CreatePoolRange("a", 0, 4);
  auto pool_b = controller.CreatePoolRange("b", 4, 4);
  RealComputeOptions real = SmallReal();
  real.enabled = false;

  WorkerGroupOptions options;
  options.name = "reward";
  options.model = ModelSpec::Llama7B();
  options.scalar_head = true;
  options.train_cfg = {1, 1, 4};
  RewardWorkerGroup reward(options, pool_a, &controller, real, RewardSource::kRuleReward);
  options.name = "cost";
  RewardWorkerGroup cost(options, pool_b, &controller, real, RewardSource::kRuleCost,
                         "costs");

  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  BatchFuture input;
  reward.ComputeReward(input, workload);
  cost.ComputeReward(input, workload);
  const auto& trace = controller.cluster().trace();
  ASSERT_EQ(trace.size(), 2u);
  // No data dependency and disjoint devices: both start at t=0.
  EXPECT_DOUBLE_EQ(trace[0].start, 0.0);
  EXPECT_DOUBLE_EQ(trace[1].start, 0.0);
}

TEST(CriticWorkerTest, ValuesHavePerTokenShape) {
  Controller controller(ClusterSpec::WithGpus(4));
  auto pool = controller.CreatePoolRange("critic", 0, 4);
  WorkerGroupOptions options;
  options.name = "critic";
  options.model = ModelSpec::Llama7B();
  options.scalar_head = true;
  options.trainable = true;
  options.train_cfg = {1, 2, 2};
  CriticWorkerGroup critic(options, pool, &controller, SmallReal(), "values");

  DataBatch batch;
  batch.SetTokens("prompts", {{1, 2, 3, 4}, {5, 6, 0, 1}});
  batch.SetTokens("responses", {{2, 3, 4, 5}, {6, 7, 1, 2}});
  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  BatchFuture input;
  input.data = batch;
  BatchFuture out = critic.ComputeValues(input, workload);
  ASSERT_TRUE(out.data.HasFloat("values"));
  EXPECT_EQ(out.data.Float("values").size(), 2u);
  EXPECT_EQ(out.data.Float("values")[0].size(), 4u);
}

TEST(CriticWorkerTest, UpdateCriticFitsReturns) {
  Controller controller(ClusterSpec::WithGpus(2));
  auto pool = controller.CreatePoolRange("critic", 0, 2);
  WorkerGroupOptions options;
  options.name = "critic";
  options.model = ModelSpec::Llama7B();
  options.scalar_head = true;
  options.trainable = true;
  options.train_cfg = {1, 1, 2};
  RealComputeOptions real = SmallReal();
  real.adam.lr = 0.05f;
  CriticWorkerGroup critic(options, pool, &controller, real, "values");

  DataBatch batch;
  batch.SetTokens("prompts", {{1, 2, 3, 4}, {5, 6, 0, 1}});
  batch.SetTokens("responses", {{2, 3, 4, 5}, {6, 7, 1, 2}});
  batch.SetFloat("returns", {{1, 1, 1, 1}, {1, 1, 1, 1}});
  RlhfWorkloadSpec workload;
  workload.global_batch = 64;

  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 60; ++step) {
    // Old values refresh each step (on-policy fitting).
    BatchFuture probe;
    probe.data = batch;
    batch = critic.ComputeValues(probe, workload).data;
    BatchFuture minibatch;
    minibatch.data = batch;
    BatchFuture out = critic.UpdateCritic(minibatch, workload);
    const double loss = out.data.Float("critic_loss")[0][0];
    if (step == 0) {
      first_loss = loss;
    }
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss);
}

TEST(RewardWorkerTest, RuleRewardMatchesTask) {
  Controller controller(ClusterSpec::WithGpus(2));
  auto pool = controller.CreatePoolRange("reward", 0, 2);
  WorkerGroupOptions options;
  options.name = "reward";
  options.model = ModelSpec::Llama7B();
  options.scalar_head = true;
  options.train_cfg = {1, 1, 2};
  RealComputeOptions real = SmallReal();
  RewardWorkerGroup reward(options, pool, &controller, real, RewardSource::kRuleReward);

  DataBatch batch;
  batch.SetTokens("prompts", {{1, 2, 3, 2}});
  batch.SetTokens("responses", {{3, 4, 5, 6}});
  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  BatchFuture input;
  input.data = batch;
  BatchFuture out = reward.ComputeReward(input, workload);
  EXPECT_NEAR(out.data.Float("rewards")[0][0],
              real.task.SampleReward({1, 2, 3, 2}, {3, 4, 5, 6}), 1e-6);
}

TEST(RewardWorkerTest, CostOutputsToCostsColumn) {
  Controller controller(ClusterSpec::WithGpus(2));
  auto pool = controller.CreatePoolRange("cost", 0, 2);
  WorkerGroupOptions options;
  options.name = "cost";
  options.model = ModelSpec::Llama7B();
  options.scalar_head = true;
  options.train_cfg = {1, 1, 2};
  RealComputeOptions real = SmallReal();
  RewardWorkerGroup cost(options, pool, &controller, real, RewardSource::kRuleCost, "costs");

  DataBatch batch;
  batch.SetTokens("prompts", {{1, 2, 3, 2}});
  batch.SetTokens("responses", {{15, 15, 1, 2}});  // Two toxic tokens of 4.
  RlhfWorkloadSpec workload;
  BatchFuture input;
  input.data = batch;
  BatchFuture out = cost.ComputeReward(input, workload);
  EXPECT_NEAR(out.data.Float("costs")[0][0], 0.5f, 1e-6);
}

TEST(ReferenceWorkerTest, InitializedFromActorGivesSameLogProbs) {
  Controller controller(ClusterSpec::WithGpus(4));
  auto pool = controller.CreatePoolRange("pool", 0, 4);
  RealComputeOptions real = SmallReal();
  ActorOptions actor_options;
  actor_options.gen = GenParallelConfig{1, 1};
  ActorWorkerGroup actor(ActorGroupOptions({1, 2, 2}), pool, &controller, real,
                         actor_options);

  WorkerGroupOptions ref_options;
  ref_options.name = "reference";
  ref_options.model = ModelSpec::Llama7B();
  ref_options.train_cfg = {1, 2, 2};
  ReferenceWorkerGroup reference(ref_options, pool, &controller, real, &actor.net());

  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  BatchFuture prompts = BatchFuture::Immediate(Prompts(8, real.task, 5));
  BatchFuture generated = actor.GenerateSequences(prompts, workload);
  BatchFuture with_actor_lp = actor.ComputeLogProb(generated, workload, "actor_lp");
  BatchFuture with_ref = reference.ComputeRefLogProb(with_actor_lp, workload);
  const auto& actor_lp = with_ref.data.Float("actor_lp");
  const auto& ref_lp = with_ref.data.Float("ref_log_probs");
  for (size_t i = 0; i < actor_lp.size(); ++i) {
    for (size_t k = 0; k < actor_lp[i].size(); ++k) {
      EXPECT_NEAR(actor_lp[i][k], ref_lp[i][k], 1e-5);
    }
  }
}

}  // namespace
}  // namespace hybridflow
