#include "src/rlhf/dataflow.h"

#include <algorithm>

namespace hybridflow {

const char* RlhfRoleName(RlhfRole role) {
  static constexpr const char* kNames[] = {"actor", "critic", "reference", "reward", "cost"};
  return kNames[static_cast<int>(role)];
}

bool RlhfDataflow::Has(RlhfRole role) const {
  return std::find(roles.begin(), roles.end(), role) != roles.end();
}

const RlhfDataflow& DataflowOf(RlhfAlgorithm algorithm) {
  using R = RlhfRole;
  static const RlhfDataflow kPpo{.name = "PPO",
                                 .key = "ppo",
                                 .roles = {R::kActor, R::kCritic, R::kReference, R::kReward},
                                 .estimator = AdvantageEstimator::kGae};
  static const RlhfDataflow kRemax{.name = "ReMax",
                                   .key = "remax",
                                   .roles = {R::kActor, R::kReference, R::kReward},
                                   .generation_passes = 2,
                                   .estimator = AdvantageEstimator::kRemax,
                                   .policy_loss = PolicyLossKind::kReinforce};
  static const RlhfDataflow kSafeRlhf{
      .name = "Safe-RLHF",
      .key = "safe-rlhf",
      .roles = {R::kActor, R::kCritic, R::kReference, R::kReward, R::kCost},
      .estimator = AdvantageEstimator::kGae,
      .default_cost_lambda = 0.5f,
      .default_ptx_coef = 0.1f};
  static const RlhfDataflow kGrpo{.name = "GRPO",
                                  .key = "grpo",
                                  .roles = {R::kActor, R::kReference, R::kReward},
                                  .estimator = AdvantageEstimator::kGrpo};
  switch (algorithm) {
    case RlhfAlgorithm::kPpo:
      return kPpo;
    case RlhfAlgorithm::kRemax:
      return kRemax;
    case RlhfAlgorithm::kSafeRlhf:
      return kSafeRlhf;
    case RlhfAlgorithm::kGrpo:
      return kGrpo;
  }
  return kPpo;
}

bool ParseRlhfAlgorithm(const std::string& key, RlhfAlgorithm* algorithm) {
  for (RlhfAlgorithm candidate : {RlhfAlgorithm::kPpo, RlhfAlgorithm::kRemax,
                                  RlhfAlgorithm::kSafeRlhf, RlhfAlgorithm::kGrpo}) {
    if (key == DataflowOf(candidate).key) {
      *algorithm = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace hybridflow
