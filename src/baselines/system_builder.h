// End-to-end RLHF system assembly for HybridFlow and the three baseline
// systems of Table 1:
//
//   DeepSpeed-Chat  colocate all models on every GPU; ZeRO-3 training and
//                   TP generation with a full all-gather reshard between
//                   the stages.
//   OpenRLHF        every model on its own devices; a second copy of the
//                   actor weights on dedicated vLLM GPUs, synchronized by
//                   broadcast each iteration.
//   NeMo-Aligner    actor+reference on one half, critic+reward on the
//                   other; identical 3D parallelism for actor training and
//                   generation (shared weights, no resharding) and no
//                   KVCache in the generation engine.
//   HybridFlow      placement and per-model parallelism from Algorithm 1;
//                   3D-HybridEngine zero-redundancy resharding.
//
// A built instance owns the controller, pools, worker groups, and the
// dataflow program, ready to run iterations.
#ifndef SRC_BASELINES_SYSTEM_BUILDER_H_
#define SRC_BASELINES_SYSTEM_BUILDER_H_

#include <memory>
#include <string>

#include "src/mapping/device_mapper.h"
#include "src/rlhf/rlhf_program.h"

namespace hybridflow {

enum class RlhfSystem {
  kHybridFlow,
  kDeepSpeedChat,
  kOpenRlhf,
  kNemoAligner,
};

const char* RlhfSystemName(RlhfSystem system);

struct SystemBuildConfig {
  RlhfSystem system = RlhfSystem::kHybridFlow;
  RlhfAlgorithm algorithm = RlhfAlgorithm::kPpo;  // hflint: allow(one-algorithm-switch)
  int num_gpus = 16;
  int gpus_per_node = 8;
  // Actor & reference share one architecture; critic/reward/cost another
  // (§8.2 uses equal sizes; §8.3 "larger critic" uses 13B/70B).
  ModelSpec actor_model = ModelSpec::Llama7B();
  ModelSpec critic_model = ModelSpec::Llama7B();
  RlhfWorkloadSpec workload;
  // HybridFlow placement restriction (Fig. 12); kAuto runs Algorithm 1.
  PlacementKind placement = PlacementKind::kAuto;
  // Real (toy-scale) data plane; disable for pure timing sweeps.
  bool real_compute = false;
  int64_t real_batch = 32;
  // Architecture of the toy policy networks (MLP mixer or tiny transformer).
  PolicyArch real_arch = PolicyArch::kMlpMixer;
  uint64_t seed = 1;
  PerfParams perf;
  // Generation-stage rollout engine (rollout.mode = static | continuous).
  RolloutOptions rollout;
  // One-step-off asynchronous PPO (docs/ASYNC_PIPELINE.md). Requires the
  // continuous rollout engine; ValidateSystemConfig rejects async with
  // rollout.mode = static.
  bool async_pipeline = false;
  int64_t async_staleness = 1;
  // Worker count for the data-plane tensor kernels (`tensor.threads`
  // config key); 0 = auto (the shared pool size). Any value yields
  // bitwise-identical numerics — see docs/KERNELS.md.
  int tensor_threads = 0;
};

struct RlhfSystemInstance {
  std::unique_ptr<Controller> controller;
  std::unique_ptr<ActorWorkerGroup> actor;
  std::unique_ptr<CriticWorkerGroup> critic;
  std::unique_ptr<ReferenceWorkerGroup> reference;
  std::unique_ptr<RewardWorkerGroup> reward;
  std::unique_ptr<RewardWorkerGroup> cost;
  std::unique_ptr<PromptDataset> dataset;
  std::unique_ptr<RlhfProgram> program;
  MappingResult mapping;  // Populated for HybridFlow.
  bool feasible = true;   // False when models cannot fit the cluster.

  IterationMetrics RunIteration() { return program->RunIteration(); }
  // Runs `warmup` unmeasured iterations then averages `measured` ones
  // (§8.1's measurement protocol).
  IterationMetrics RunAveraged(int warmup, int measured);
};

// Builds a ready-to-run instance. When the models cannot fit (`feasible ==
// false`), the instance has a null program and must not be run.
RlhfSystemInstance BuildSystem(const SystemBuildConfig& config);

// Checks cross-option consistency of a build config. Returns an empty
// string when valid, otherwise a human-readable error (e.g. async_pipeline
// with the static rollout engine). BuildSystem asserts on the same
// conditions; callers that take user input (tools/hybridflow_run) should
// validate first and report the message.
std::string ValidateSystemConfig(const SystemBuildConfig& config);

// The model descriptor list of an algorithm's dataflow: one per
// RlhfDataflow role, in the table's order, the actor first and carrying
// the generation-pass count (used by the mapper, the builders and tests).
std::vector<MappedModelDesc> DataflowModels(RlhfAlgorithm algorithm,
                                            const ModelSpec& actor_model,
                                            const ModelSpec& critic_model);

// Smallest power-of-two TP (<= cap) whose per-GPU share of `bytes` fits
// within `budget`; returns 0 if none does.
int MinTpForBytes(double bytes, double budget, int cap);

}  // namespace hybridflow

#endif  // SRC_BASELINES_SYSTEM_BUILDER_H_
