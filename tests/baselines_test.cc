#include <gtest/gtest.h>

#include "src/baselines/system_builder.h"

namespace hybridflow {
namespace {

SystemBuildConfig Config(RlhfSystem system, const char* model = "7B", int gpus = 16) {
  SystemBuildConfig config;
  config.system = system;
  config.num_gpus = gpus;
  config.actor_model = ModelSpec::ByName(model);
  config.critic_model = ModelSpec::ByName(model);
  config.real_compute = false;
  return config;
}

class SystemSweep : public ::testing::TestWithParam<RlhfSystem> {};

TEST_P(SystemSweep, BuildsAndRunsAt7B16) {
  RlhfSystemInstance system = BuildSystem(Config(GetParam()));
  ASSERT_TRUE(system.feasible) << RlhfSystemName(GetParam());
  IterationMetrics metrics = system.RunAveraged(1, 2);
  EXPECT_GT(metrics.throughput_tokens_per_sec, 0.0);
  EXPECT_GT(metrics.iteration_seconds, 0.0);
}

TEST_P(SystemSweep, NoMemoryOverflowAt7B16) {
  RlhfSystemInstance system = BuildSystem(Config(GetParam()));
  ASSERT_TRUE(system.feasible);
  system.RunIteration();
  EXPECT_FALSE(system.controller->cluster().AnyDeviceEverOom())
      << RlhfSystemName(GetParam()) << " overflowed device memory";
}

INSTANTIATE_TEST_SUITE_P(Systems, SystemSweep,
                         ::testing::Values(RlhfSystem::kHybridFlow,
                                           RlhfSystem::kDeepSpeedChat, RlhfSystem::kOpenRlhf,
                                           RlhfSystem::kNemoAligner),
                         [](const ::testing::TestParamInfo<RlhfSystem>& info) {
                           switch (info.param) {
                             case RlhfSystem::kHybridFlow:
                               return "HybridFlow";
                             case RlhfSystem::kDeepSpeedChat:
                               return "DeepSpeedChat";
                             case RlhfSystem::kOpenRlhf:
                               return "OpenRlhf";
                             case RlhfSystem::kNemoAligner:
                               return "NemoAligner";
                           }
                           return "Unknown";
                         });

// The paper's headline (§8.2): HybridFlow outperforms every baseline across
// model scales and cluster sizes.
struct HeadlineCase {
  const char* model;
  int gpus;
};

class HeadlineSweep : public ::testing::TestWithParam<HeadlineCase> {};

TEST_P(HeadlineSweep, HybridFlowBeatsAllBaselines) {
  const HeadlineCase& param = GetParam();
  RlhfSystemInstance hybridflow =
      BuildSystem(Config(RlhfSystem::kHybridFlow, param.model, param.gpus));
  ASSERT_TRUE(hybridflow.feasible);
  const double hybridflow_tput = hybridflow.RunAveraged(1, 2).throughput_tokens_per_sec;
  for (RlhfSystem baseline : {RlhfSystem::kDeepSpeedChat, RlhfSystem::kOpenRlhf,
                              RlhfSystem::kNemoAligner}) {
    RlhfSystemInstance system = BuildSystem(Config(baseline, param.model, param.gpus));
    if (!system.feasible) {
      continue;  // Paper: baselines start at their smallest non-OOM scale.
    }
    const double baseline_tput = system.RunAveraged(1, 2).throughput_tokens_per_sec;
    EXPECT_GT(hybridflow_tput, baseline_tput)
        << RlhfSystemName(baseline) << " at " << param.model << "/" << param.gpus;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HeadlineSweep,
                         ::testing::Values(HeadlineCase{"7B", 8}, HeadlineCase{"7B", 16},
                                           HeadlineCase{"7B", 32}, HeadlineCase{"13B", 16},
                                           HeadlineCase{"13B", 32}, HeadlineCase{"34B", 32},
                                           HeadlineCase{"70B", 64}),
                         [](const ::testing::TestParamInfo<HeadlineCase>& info) {
                           return std::string(info.param.model) + "x" +
                                  std::to_string(info.param.gpus);
                         });

// The real (toy-numerics) data plane must work through every baseline's
// protocol/engine combination, not just HybridFlow's.
class RealComputeSweep : public ::testing::TestWithParam<RlhfSystem> {};

TEST_P(RealComputeSweep, BaselinesRunRealNumericsEndToEnd) {
  SystemBuildConfig config = Config(GetParam());
  config.real_compute = true;
  config.real_batch = 32;
  config.seed = 61;
  config.workload.global_batch = 128;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  IterationMetrics first = system.RunIteration();
  IterationMetrics second = system.RunIteration();
  EXPECT_NE(first.mean_reward, 0.0);
  EXPECT_GT(first.iteration_seconds, 0.0);
  // Learning machinery is wired: losses are being produced.
  EXPECT_NE(second.actor_loss, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Systems, RealComputeSweep,
                         ::testing::Values(RlhfSystem::kHybridFlow,
                                           RlhfSystem::kDeepSpeedChat, RlhfSystem::kOpenRlhf,
                                           RlhfSystem::kNemoAligner),
                         [](const ::testing::TestParamInfo<RlhfSystem>& info) {
                           switch (info.param) {
                             case RlhfSystem::kHybridFlow:
                               return "HybridFlow";
                             case RlhfSystem::kDeepSpeedChat:
                               return "DeepSpeedChat";
                             case RlhfSystem::kOpenRlhf:
                               return "OpenRlhf";
                             case RlhfSystem::kNemoAligner:
                               return "NemoAligner";
                           }
                           return "Unknown";
                         });

TEST(BaselineStructureTest, DeepSpeedChatColocatesEverything) {
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kDeepSpeedChat));
  ASSERT_TRUE(system.feasible);
  EXPECT_TRUE(system.actor->pool().SameDevices(system.critic->pool()));
  EXPECT_TRUE(system.actor->pool().SameDevices(system.reference->pool()));
  EXPECT_EQ(system.actor->engine().mode(), ActorEngineMode::kDsChat);
  EXPECT_EQ(system.actor->options().backend, WorkerBackend::kZero);
}

TEST(BaselineStructureTest, OpenRlhfSeparatesEveryModel) {
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kOpenRlhf));
  ASSERT_TRUE(system.feasible);
  EXPECT_FALSE(system.actor->pool().Overlaps(system.critic->pool()));
  EXPECT_FALSE(system.actor->pool().Overlaps(system.reference->pool()));
  EXPECT_FALSE(system.critic->pool().Overlaps(system.reward->pool()));
  EXPECT_EQ(system.actor->engine().mode(), ActorEngineMode::kTwoCopies);
  // The generation pool exists and is disjoint from training.
  ASSERT_NE(system.actor->actor_options().gen_pool, nullptr);
  EXPECT_FALSE(system.actor->pool().Overlaps(*system.actor->actor_options().gen_pool));
}

TEST(BaselineStructureTest, NemoSplitsActorRefFromCriticReward) {
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kNemoAligner));
  ASSERT_TRUE(system.feasible);
  EXPECT_TRUE(system.actor->pool().SameDevices(system.reference->pool()));
  EXPECT_TRUE(system.critic->pool().SameDevices(system.reward->pool()));
  EXPECT_FALSE(system.actor->pool().Overlaps(system.critic->pool()));
  EXPECT_EQ(system.actor->engine().mode(), ActorEngineMode::kShared);
  EXPECT_FALSE(system.actor->actor_options().use_kv_cache);
}

TEST(BaselineStructureTest, NemoGenerationDominatesIterationTime) {
  // §8.2: NeMo-Aligner's generation accounts for up to 81.2% of its
  // iteration time.
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kNemoAligner, "13B", 16));
  ASSERT_TRUE(system.feasible);
  IterationMetrics metrics = system.RunIteration();
  EXPECT_GT(metrics.generation_seconds / metrics.iteration_seconds, 0.5);
}

TEST(BaselineStructureTest, HybridFlowTransitionIsCheapest) {
  // Fig 14's ordering: HybridFlow < DS-Chat and < OpenRLHF transition time.
  const char* model = "34B";
  const int gpus = 32;
  double times[3] = {0, 0, 0};
  RlhfSystem systems[3] = {RlhfSystem::kHybridFlow, RlhfSystem::kDeepSpeedChat,
                           RlhfSystem::kOpenRlhf};
  for (int i = 0; i < 3; ++i) {
    RlhfSystemInstance system = BuildSystem(Config(systems[i], model, gpus));
    ASSERT_TRUE(system.feasible) << RlhfSystemName(systems[i]);
    times[i] = system.RunIteration().transition_seconds;
  }
  EXPECT_LT(times[0], times[1]);
  EXPECT_LT(times[0], times[2]);
}

TEST(BaselineStructureTest, InfeasibleConfigsAreReportedNotFatal) {
  // 70B on 8 GPUs cannot host 4 models' training state.
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kDeepSpeedChat, "70B", 8));
  EXPECT_FALSE(system.feasible);
  EXPECT_EQ(system.program, nullptr);
}

TEST(BaselineStructureTest, OpenRlhfWithFewerGpusThanPoolsIsInfeasible) {
  // PPO on OpenRLHF needs five pools (actor training, vLLM generation,
  // critic, reference, reward), so four GPUs are reported, not fatal.
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kOpenRlhf, "7B", 4));
  EXPECT_FALSE(system.feasible);
  EXPECT_EQ(system.program, nullptr);
}

TEST(BaselineStructureTest, OpenRlhfAllocationsCoverClusterExactly) {
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kOpenRlhf, "7B", 32));
  ASSERT_TRUE(system.feasible);
  int total = system.actor->pool().size() + system.actor->actor_options().gen_pool->size() +
              system.critic->pool().size() + system.reference->pool().size() +
              system.reward->pool().size();
  EXPECT_EQ(total, 32);
}

TEST(BaselineStructureTest, RunAveragedAveragesThroughput) {
  RlhfSystemInstance system = BuildSystem(Config(RlhfSystem::kHybridFlow));
  ASSERT_TRUE(system.feasible);
  IterationMetrics averaged = system.RunAveraged(2, 3);
  IterationMetrics single = system.RunIteration();
  EXPECT_NEAR(averaged.throughput_tokens_per_sec, single.throughput_tokens_per_sec,
              single.throughput_tokens_per_sec * 0.01);
}

}  // namespace
}  // namespace hybridflow
