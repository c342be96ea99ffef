#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "src/baselines/system_builder.h"

namespace hybridflow {
namespace {

SystemBuildConfig SmallSystem(RlhfAlgorithm algorithm) {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = algorithm;
  config.num_gpus = 8;
  config.actor_model = ModelSpec::Llama7B();
  config.critic_model = ModelSpec::Llama7B();
  config.real_compute = true;
  config.real_batch = 32;
  config.seed = 21;
  config.workload.global_batch = 128;
  config.workload.prompt_len = 256;
  config.workload.response_len = 256;
  return config;
}

class AlgorithmSweep : public ::testing::TestWithParam<RlhfAlgorithm> {};

TEST_P(AlgorithmSweep, RunsEndToEndWithRealNumerics) {
  RlhfSystemInstance system = BuildSystem(SmallSystem(GetParam()));
  ASSERT_TRUE(system.feasible);
  IterationMetrics metrics = system.RunIteration();
  EXPECT_GT(metrics.iteration_seconds, 0.0);
  EXPECT_GT(metrics.throughput_tokens_per_sec, 0.0);
  // Real plane produced responses and rewards.
  EXPECT_NE(metrics.mean_reward, 0.0);
  // All three stage categories were scheduled.
  EXPECT_GT(metrics.busy_by_category.at("generate"), 0.0);
  EXPECT_GT(metrics.busy_by_category.at("infer"), 0.0);
  EXPECT_GT(metrics.busy_by_category.at("train"), 0.0);
}

TEST_P(AlgorithmSweep, IterationTimeIsDeterministic) {
  RlhfSystemInstance system = BuildSystem(SmallSystem(GetParam()));
  ASSERT_TRUE(system.feasible);
  IterationMetrics first = system.RunIteration();
  IterationMetrics second = system.RunIteration();
  EXPECT_NEAR(first.iteration_seconds, second.iteration_seconds,
              1e-9 * first.iteration_seconds);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AlgorithmSweep,
                         ::testing::Values(RlhfAlgorithm::kPpo, RlhfAlgorithm::kRemax,
                                           RlhfAlgorithm::kSafeRlhf, RlhfAlgorithm::kGrpo),
                         [](const ::testing::TestParamInfo<RlhfAlgorithm>& info) {
                           switch (info.param) {
                             case RlhfAlgorithm::kPpo:
                               return "Ppo";
                             case RlhfAlgorithm::kRemax:
                               return "Remax";
                             case RlhfAlgorithm::kSafeRlhf:
                               return "SafeRlhf";
                             case RlhfAlgorithm::kGrpo:
                               return "Grpo";
                           }
                           return "Unknown";
                         });

TEST(RlhfLearningTest, PpoReducesToxicityAndImprovesReward) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kPpo);
  config.real_batch = 64;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  double first_reward = 0.0;
  double first_toxicity = 0.0;
  double last_reward = 0.0;
  double last_toxicity = 0.0;
  const int iterations = 25;
  for (int i = 0; i < iterations; ++i) {
    IterationMetrics metrics = system.RunIteration();
    if (i < 3) {
      first_reward += metrics.mean_reward / 3.0;
      first_toxicity += metrics.toxicity_rate / 3.0;
    }
    if (i >= iterations - 3) {
      last_reward += metrics.mean_reward / 3.0;
      last_toxicity += metrics.toxicity_rate / 3.0;
    }
  }
  EXPECT_GT(last_reward, first_reward) << "PPO failed to improve the reward";
  EXPECT_LE(last_toxicity, first_toxicity + 1e-9)
      << "PPO failed to suppress the toxic token";
}

TEST(RlhfLearningTest, RemaxLearnsWithoutCritic) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kRemax);
  config.real_batch = 64;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  EXPECT_EQ(system.critic, nullptr);
  double first = 0.0;
  double last = 0.0;
  for (int i = 0; i < 20; ++i) {
    IterationMetrics metrics = system.RunIteration();
    if (i < 3) {
      first += metrics.mean_reward / 3.0;
    }
    if (i >= 17) {
      last += metrics.mean_reward / 3.0;
    }
  }
  EXPECT_GT(last, first);
}

TEST(RlhfProgramTest, SafeRlhfUsesCostModel) {
  RlhfSystemInstance system = BuildSystem(SmallSystem(RlhfAlgorithm::kSafeRlhf));
  ASSERT_TRUE(system.feasible);
  ASSERT_NE(system.cost, nullptr);
  system.RunIteration();
  // Cost model scheduled at least one op.
  bool saw_cost_op = false;
  for (const TraceSpan& span : system.controller->cluster().trace()) {
    if (span.name.rfind("cost.", 0) == 0) {
      saw_cost_op = true;
    }
  }
  EXPECT_TRUE(saw_cost_op);
}

TEST(RlhfProgramTest, RemaxSchedulesTwoGenerationPasses) {
  RlhfSystemInstance system = BuildSystem(SmallSystem(RlhfAlgorithm::kRemax));
  ASSERT_TRUE(system.feasible);
  system.RunIteration();
  int generate_spans = 0;
  for (const TraceSpan& span : system.controller->cluster().trace()) {
    if (span.category == "generate") {
      generate_spans += 1;
    }
  }
  EXPECT_EQ(generate_spans, 2);
}

TEST(RlhfProgramTest, PpoSchedulesUpdatesPerMinibatch) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kPpo);
  config.workload.updates_per_iteration = 4;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  system.RunIteration();
  int actor_updates = 0;
  int critic_updates = 0;
  for (const TraceSpan& span : system.controller->cluster().trace()) {
    if (span.name == "actor.update_actor") {
      actor_updates += 1;
    }
    if (span.name == "critic.update_critic") {
      critic_updates += 1;
    }
  }
  EXPECT_EQ(actor_updates, 4);
  EXPECT_EQ(critic_updates, 4);
}

TEST(RlhfProgramTest, GrpoGroupsShareAPrompt) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kGrpo);
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  system.RunIteration();
  // Algorithm name resolution sanity.
  EXPECT_STREQ(RlhfAlgorithmName(RlhfAlgorithm::kGrpo), "GRPO");
}

TEST(RlhfProgramTest, TransformerActorsLearnToo) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kPpo);
  config.real_arch = PolicyArch::kTransformer;
  config.real_batch = 32;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  double first = 0.0;
  double last = 0.0;
  for (int i = 0; i < 12; ++i) {
    IterationMetrics metrics = system.RunIteration();
    if (i < 2) {
      first += metrics.mean_reward / 2.0;
    }
    if (i >= 10) {
      last += metrics.mean_reward / 2.0;
    }
  }
  EXPECT_GT(last, first) << "transformer-backed PPO failed to improve reward";
}

TEST(RlhfProgramTest, RecomputeLogProbsAddsAnActorInferenceOp) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kPpo);
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  RlhfProgramConfig program_config;
  program_config.algorithm = RlhfAlgorithm::kPpo;
  program_config.workload = config.workload;
  program_config.real_batch = 16;
  program_config.recompute_log_probs = true;
  RlhfModels models;
  models.actor = system.actor.get();
  models.critic = system.critic.get();
  models.reference = system.reference.get();
  models.reward = system.reward.get();
  RlhfProgram program(program_config, models, system.controller.get(), system.dataset.get());
  program.RunIteration();
  int log_prob_ops = 0;
  for (const TraceSpan& span : system.controller->cluster().trace()) {
    if (span.name == "actor.compute_log_prob") {
      log_prob_ops += 1;
    }
  }
  EXPECT_EQ(log_prob_ops, 1);
}

TEST(RlhfProgramTest, ModelsMustMatchTheDataflowRoles) {
  RlhfSystemInstance system = BuildSystem(SmallSystem(RlhfAlgorithm::kPpo));
  ASSERT_TRUE(system.feasible);
  RlhfProgramConfig program_config;
  program_config.workload = system.program->config().workload;
  RlhfModels models;
  models.actor = system.actor.get();
  models.critic = system.critic.get();
  models.reference = system.reference.get();
  models.reward = system.reward.get();
  program_config.algorithm = RlhfAlgorithm::kGrpo;
  EXPECT_DEATH(RlhfProgram(program_config, models, system.controller.get(), nullptr),
               "GRPO has no critic model");
  program_config.algorithm = RlhfAlgorithm::kSafeRlhf;
  EXPECT_DEATH(RlhfProgram(program_config, models, system.controller.get(), nullptr),
               "Safe-RLHF requires a cost model");
}

TEST(RlhfProgramTest, TimingOnlyModeRunsWithoutData) {
  SystemBuildConfig config = SmallSystem(RlhfAlgorithm::kPpo);
  config.real_compute = false;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  IterationMetrics metrics = system.RunIteration();
  EXPECT_GT(metrics.iteration_seconds, 0.0);
  EXPECT_DOUBLE_EQ(metrics.mean_reward, 0.0);
}

// The ops one synchronous iteration must schedule, read off the dataflow
// table: every generation pass (a greedy pass is scored by the reward
// model for the baseline), each scoring role's preparation op, and one
// update per minibatch for each trainable role.
std::multiset<std::string> TableOps(const RlhfDataflow& dataflow, const RlhfWorkloadSpec& w) {
  std::multiset<std::string> ops;
  for (int pass = 0; pass < dataflow.generation_passes; ++pass) {
    ops.insert("actor.generate");
    if (pass > 0) {
      ops.insert("reward.compute_rewards");
    }
  }
  const int updates = w.ppo_epochs * w.updates_per_iteration;
  for (RlhfRole role : dataflow.roles) {
    const std::string name = RlhfRoleName(role);
    switch (role) {
      case RlhfRole::kActor:
        break;
      case RlhfRole::kCritic:
        ops.insert(name + ".compute_values");
        break;
      case RlhfRole::kReference:
        ops.insert(name + ".compute_ref_log_prob");
        break;
      case RlhfRole::kReward:
        ops.insert(name + ".compute_rewards");
        break;
      case RlhfRole::kCost:
        ops.insert(name + ".compute_costs");
        break;
    }
    if (RoleTrainable(role)) {
      for (int i = 0; i < updates; ++i) {
        ops.insert(name + (role == RlhfRole::kActor ? ".update_actor" : ".update_critic"));
      }
    }
  }
  return ops;
}

class DataflowContract : public ::testing::TestWithParam<RlhfAlgorithm> {};

TEST_P(DataflowContract, IterationSchedulesExactlyTheTablesOps) {
  SystemBuildConfig config = SmallSystem(GetParam());
  config.workload.updates_per_iteration = 3;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  system.RunIteration();
  // The train->generate weight reshard is the engine's transition, not a
  // dataflow op.
  std::multiset<std::string> scheduled;
  for (const TraceSpan& span : system.controller->cluster().trace()) {
    if (span.category != "reshard") {
      scheduled.insert(span.name);
    }
  }
  EXPECT_EQ(scheduled, TableOps(DataflowOf(GetParam()), config.workload));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DataflowContract,
                         ::testing::Values(RlhfAlgorithm::kPpo, RlhfAlgorithm::kRemax,
                                           RlhfAlgorithm::kSafeRlhf, RlhfAlgorithm::kGrpo),
                         [](const ::testing::TestParamInfo<RlhfAlgorithm>& info) {
                           std::string name;
                           for (const char* c = RlhfAlgorithmName(info.param); *c; ++c) {
                             if (std::isalnum(static_cast<unsigned char>(*c)) != 0) {
                               name += *c;
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace hybridflow
