#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/system_builder.h"
#include "src/rlhf/kl_controller.h"

namespace hybridflow {
namespace {

TEST(AdaptiveKlTest, RaisesCoefWhenKlAboveTarget) {
  AdaptiveKlConfig config;
  config.target_kl = 0.05;
  config.initial_coef = 0.1;
  AdaptiveKlController controller(config);
  const double before = controller.coef();
  controller.Update(0.5);  // 10x the target.
  EXPECT_GT(controller.coef(), before);
}

TEST(AdaptiveKlTest, LowersCoefWhenKlBelowTarget) {
  AdaptiveKlConfig config;
  config.target_kl = 0.05;
  config.initial_coef = 0.1;
  AdaptiveKlController controller(config);
  const double before = controller.coef();
  controller.Update(0.001);
  EXPECT_LT(controller.coef(), before);
}

TEST(AdaptiveKlTest, ExactTargetIsAFixedPoint) {
  AdaptiveKlConfig config;
  config.target_kl = 0.05;
  config.initial_coef = 0.2;
  AdaptiveKlController controller(config);
  controller.Update(0.05);
  EXPECT_DOUBLE_EQ(controller.coef(), 0.2);
}

TEST(AdaptiveKlTest, ErrorClipBoundsSingleUpdate) {
  AdaptiveKlConfig config;
  config.target_kl = 0.05;
  config.initial_coef = 1.0;
  config.horizon_gain = 0.1;
  config.error_clip = 1.0;
  AdaptiveKlController controller(config);
  controller.Update(1000.0);  // Huge KL: update still bounded to +10%.
  EXPECT_NEAR(controller.coef(), 1.1, 1e-12);
}

TEST(AdaptiveKlTest, CoefStaysWithinBounds) {
  AdaptiveKlConfig config;
  config.target_kl = 0.05;
  config.initial_coef = 0.1;
  config.min_coef = 0.01;
  config.max_coef = 0.5;
  AdaptiveKlController controller(config);
  for (int i = 0; i < 200; ++i) {
    controller.Update(10.0);
  }
  EXPECT_DOUBLE_EQ(controller.coef(), 0.5);
  for (int i = 0; i < 500; ++i) {
    controller.Update(0.0);
  }
  EXPECT_DOUBLE_EQ(controller.coef(), 0.01);
}

TEST(AdaptiveKlTest, IntegratesWithPpoProgram) {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = RlhfAlgorithm::kPpo;
  config.num_gpus = 8;
  config.real_compute = true;
  config.real_batch = 32;
  config.seed = 51;
  config.workload.global_batch = 64;
  RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  // Rebuild the program with adaptive KL enabled.
  RlhfProgramConfig program_config;
  program_config.algorithm = RlhfAlgorithm::kPpo;
  program_config.workload = config.workload;
  program_config.real_batch = 32;
  program_config.use_adaptive_kl = true;
  program_config.adaptive_kl.target_kl = 0.02;
  RlhfModels models;
  models.actor = system.actor.get();
  models.critic = system.critic.get();
  models.reference = system.reference.get();
  models.reward = system.reward.get();
  RlhfProgram program(program_config, models, system.controller.get(),
                      system.dataset.get());
  std::vector<double> coefs;
  for (int i = 0; i < 8; ++i) {
    IterationMetrics metrics = program.RunIteration();
    coefs.push_back(metrics.kl_coef);
    EXPECT_GT(metrics.kl_coef, 0.0);
  }
  // The coefficient must actually move (policy drifts from the reference
  // as updates accumulate).
  bool moved = false;
  for (size_t i = 1; i < coefs.size(); ++i) {
    moved = moved || coefs[i] != coefs[0];
  }
  EXPECT_TRUE(moved);
}

// An adaptive-KL PPO system whose program is rebuilt with the controller
// on (the system config has no adaptive-KL switch).
RlhfSystemInstance AdaptiveKlSystem() {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = RlhfAlgorithm::kPpo;
  config.num_gpus = 8;
  config.real_compute = true;
  config.real_batch = 32;
  config.seed = 51;
  config.workload.global_batch = 64;
  RlhfSystemInstance system = BuildSystem(config);
  HF_CHECK(system.feasible);
  RlhfProgramConfig program_config;
  program_config.algorithm = RlhfAlgorithm::kPpo;
  program_config.workload = config.workload;
  program_config.real_batch = 32;
  program_config.use_adaptive_kl = true;
  program_config.adaptive_kl.target_kl = 0.02;
  RlhfModels models;
  models.actor = system.actor.get();
  models.critic = system.critic.get();
  models.reference = system.reference.get();
  models.reward = system.reward.get();
  system.program = std::make_unique<RlhfProgram>(program_config, models,
                                                 system.controller.get(), system.dataset.get());
  return system;
}

TEST(AdaptiveKlTest, RunAveragedReportsTheProgramsCoefficient) {
  constexpr int kWarmup = 1;
  constexpr int kMeasured = 3;
  RlhfSystemInstance averaged_system = AdaptiveKlSystem();
  const IterationMetrics averaged = averaged_system.RunAveraged(kWarmup, kMeasured);
  // The same seeded run iteration by iteration: the average of the
  // coefficients the measured iterations reported.
  RlhfSystemInstance stepped_system = AdaptiveKlSystem();
  for (int i = 0; i < kWarmup; ++i) {
    stepped_system.RunIteration();
  }
  double total = 0.0;
  for (int i = 0; i < kMeasured; ++i) {
    total += stepped_system.RunIteration().kl_coef;
  }
  EXPECT_GT(averaged.kl_coef, 0.0);
  EXPECT_DOUBLE_EQ(averaged.kl_coef, total * (1.0 / kMeasured));
}

}  // namespace
}  // namespace hybridflow
