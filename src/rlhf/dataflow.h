// The RLHF algorithms as dataflows (§4, Figure 6): each algorithm's models,
// generation passes, advantage estimator and policy loss, stated once.
// RlhfProgram, DataflowModels (the mapper and the builders) and
// hybridflow_run read this table; hflint's `one-algorithm-switch` keeps
// every `RlhfAlgorithm::k*` spelling in src/ inside dataflow.{h,cc}.
#ifndef SRC_RLHF_DATAFLOW_H_
#define SRC_RLHF_DATAFLOW_H_

#include <string>
#include <vector>

#include "src/rlhf/advantage.h"
#include "src/rlhf/losses.h"

namespace hybridflow {

enum class RlhfAlgorithm { kPpo, kRemax, kSafeRlhf, kGrpo };

// A model's part in a dataflow (Figure 1). The actor generates and trains,
// the critic trains, and the others only score generated batches. Actor
// and reference share the actor's architecture; the scalar-head models
// (critic, reward, cost) share the critic's.
enum class RlhfRole { kActor, kCritic, kReference, kReward, kCost };

// "actor", "critic", "reference", "reward" or "cost": the model's worker
// group, span and mapping name.
const char* RlhfRoleName(RlhfRole role);
inline bool RoleTrainable(RlhfRole role) {
  return role == RlhfRole::kActor || role == RlhfRole::kCritic;
}
inline bool RoleScalarHead(RlhfRole role) {
  return role != RlhfRole::kActor && role != RlhfRole::kReference;
}

struct RlhfDataflow {
  const char* name = "";  // Display name ("Safe-RLHF").
  const char* key = "";   // Config and command-line spelling ("safe-rlhf").
  // Actor first: the builders build it before the reference, which copies
  // its weights.
  std::vector<RlhfRole> roles;
  // 2 when a greedy (do_sample=false) pass scores the baseline (ReMax).
  int generation_passes = 1;
  AdvantageEstimator estimator = AdvantageEstimator::kGae;
  PolicyLossKind policy_loss = PolicyLossKind::kPpoClip;
  // Applied when the program config leaves the value <= 0. Nonzero only
  // for Safe-RLHF; an algorithm without a cost model runs cost_lambda 0.
  float default_cost_lambda = 0.0f;
  float default_ptx_coef = 0.0f;

  bool Has(RlhfRole role) const;
};

const RlhfDataflow& DataflowOf(RlhfAlgorithm algorithm);
inline const char* RlhfAlgorithmName(RlhfAlgorithm algorithm) {
  return DataflowOf(algorithm).name;
}
// Looks `key` up among the dataflows' keys; false when none matches.
bool ParseRlhfAlgorithm(const std::string& key, RlhfAlgorithm* algorithm);

}  // namespace hybridflow

#endif  // SRC_RLHF_DATAFLOW_H_
