// The model classes of the hybrid programming model (§4.1, Appendix A):
// ActorWorkerGroup, CriticWorkerGroup, ReferenceWorkerGroup,
// RewardWorkerGroup (which also serves as the Safe-RLHF cost model, exactly
// as Figure 6 reuses RewardWorker). Each encapsulates one model's
// distributed computation behind the primitive APIs of Table 4.
#ifndef SRC_WORKERS_MODEL_WORKERS_H_
#define SRC_WORKERS_MODEL_WORKERS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hybridengine/hybrid_engine.h"
#include "src/rlhf/losses.h"
#include "src/rollout/engine.h"
#include "src/rollout/timing.h"
#include "src/workers/worker_group.h"

namespace hybridflow {

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

struct ActorOptions {
  // Generation-stage parallel strategy (p_g, t_g); ignored for kShared.
  GenParallelConfig gen{1, 1};
  ActorEngineMode engine_mode = ActorEngineMode::kHybridFlow;
  // NeMo-Aligner's generation engine lacks a KVCache (§8.2).
  bool use_kv_cache = true;
  double temperature = 1.0;
  // Separate generation devices for kTwoCopies (OpenRLHF's vLLM pool).
  std::shared_ptr<ResourcePool> gen_pool;
  // Rollout engine knobs (src/rollout/). Data-plane generation always runs
  // the continuous-batching step loop; `rollout.mode` picks only the
  // sim-plane timing model (kStatic: closed-form waves).
  RolloutOptions rollout;
};

struct ActorUpdateConfig {
  PolicyLossConfig loss;
  // PPO-ptx / Safe-RLHF auxiliary pretraining loss coefficient.
  float ptx_coef = 0.0f;
  // Entropy-bonus coefficient (0 disables): encourages exploration by
  // subtracting the mean policy entropy from the loss.
  float entropy_coef = 0.0f;
  // Pretraining batch ("prompts" column used as corpus); may be null.
  const DataBatch* pretrain = nullptr;
};

class ActorWorkerGroup : public ModelWorkerGroup {
 public:
  ActorWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                   Controller* controller, RealComputeOptions real, ActorOptions actor);

  // generate_sequences: auto-regressive generation of responses for a batch
  // of prompts, returning responses and their token log-probabilities.
  // Schedules the train->generation transition (3D-HybridEngine) followed
  // by the generation itself.
  BatchFuture GenerateSequences(const BatchFuture& prompts, const RlhfWorkloadSpec& workload,
                                bool do_sample = true);

  // compute_log_prob: one forward pass re-evaluating response token
  // log-probs under the current weights (optional in PPO).
  BatchFuture ComputeLogProb(const BatchFuture& batch, const RlhfWorkloadSpec& workload,
                             const std::string& output_column = "log_probs");

  // compute_loss: forward pass of the pretraining loss (Safe-RLHF / PPO-ptx).
  BatchFuture ComputeLoss(const BatchFuture& pretrain, const RlhfWorkloadSpec& workload);

  // update_actor: forward+backward+update on a minibatch with the
  // algorithm-specific policy loss.
  BatchFuture UpdateActor(const BatchFuture& batch, const RlhfWorkloadSpec& workload,
                          const ActorUpdateConfig& config = ActorUpdateConfig());

  const HybridEngine& engine() const { return *engine_; }
  const ActorOptions& actor_options() const { return actor_; }
  PolicyNet& net() { return *net_; }
  const PolicyNet& net() const { return *net_; }

  // Introspection for the transition/generation experiments (§8.4).
  double last_transition_seconds() const { return last_transition_seconds_; }
  const GenTimeBreakdown& last_gen_breakdown() const { return last_gen_; }
  const TransitionStats& last_transition_stats() const { return last_transition_; }

  // Aggregated data-plane rollout stats across all generation calls.
  RolloutStats rollout_stats() const { return rollout_stats_.Snapshot(); }
  // Performance-plane scheduler stats of the most recent GenerateSequences
  // (continuous mode only).
  const RolloutStats& last_rollout_sim_stats() const { return last_rollout_sim_; }
  // Performance-plane per-sequence latency digests (TTFT/TPOT/queue delay
  // in sim-seconds) of the most recent GenerateSequences (continuous mode
  // only).
  const SeqLatencySummary& last_rollout_sim_latency() const { return last_rollout_latency_; }

  // Global L2 gradient norm captured by the most recent UpdateActor, before
  // the optimizer step zeroed the gradients (telemetry).
  double last_grad_norm() const { return last_grad_norm_; }

 protected:
  ProtocolContext MakeProtocolContext() const override;

 private:
  DataBatch GenerateShard(const DataBatch& shard, bool do_sample, Rng& rng) const;
  TransferProtocol GenerationProtocol() const;
  double GenerationSeconds(const RlhfWorkloadSpec& workload, GenTimeBreakdown* breakdown) const;

  ActorOptions actor_;
  std::unique_ptr<HybridEngine> engine_;
  std::unique_ptr<PolicyNet> net_;
  std::unique_ptr<Adam> adam_;
  Rng sample_rng_;
  // Merged from concurrent per-rank GenerateShard calls (thread-safe);
  // mutable because generation compute closures are const.
  mutable RolloutStatsCollector rollout_stats_;
  mutable RolloutStats last_rollout_sim_;
  mutable SeqLatencySummary last_rollout_latency_;
  uint64_t generation_calls_ = 0;
  double last_grad_norm_ = 0.0;
  double last_transition_seconds_ = 0.0;
  TransitionStats last_transition_;
  GenTimeBreakdown last_gen_;
};

// ---------------------------------------------------------------------------
// Critic
// ---------------------------------------------------------------------------

class CriticWorkerGroup : public ModelWorkerGroup {
 public:
  CriticWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                    Controller* controller, RealComputeOptions real,
                    const std::string& value_column = "values");

  // compute_values: one forward pass producing per-token value estimates.
  BatchFuture ComputeValues(const BatchFuture& batch, const RlhfWorkloadSpec& workload);

  // update_critic: forward+backward+update with the clipped value loss.
  BatchFuture UpdateCritic(const BatchFuture& batch, const RlhfWorkloadSpec& workload,
                           const ValueLossConfig& config = ValueLossConfig());

  PolicyNet& net() { return *net_; }

 private:
  std::vector<std::vector<float>> ValuesForShard(const DataBatch& shard, bool with_grad,
                                                 Tensor* flat_values) const;

  std::string value_column_;
  std::string returns_column_;
  std::unique_ptr<PolicyNet> net_;
  std::unique_ptr<Adam> adam_;
};

// ---------------------------------------------------------------------------
// Reference policy
// ---------------------------------------------------------------------------

class ReferenceWorkerGroup : public ModelWorkerGroup {
 public:
  // The reference policy is initialized as a frozen copy of the actor.
  ReferenceWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                       Controller* controller, RealComputeOptions real,
                       const PolicyNet* init_from);

  // compute_ref_log_prob: one forward pass of reference log-probs.
  BatchFuture ComputeRefLogProb(const BatchFuture& batch, const RlhfWorkloadSpec& workload);

  const PolicyNet& net() const { return *net_; }

 private:
  std::unique_ptr<PolicyNet> net_;
};

// ---------------------------------------------------------------------------
// Reward / cost model
// ---------------------------------------------------------------------------

enum class RewardSource {
  kLearnedNet,  // Scalar-head network scoring the final context.
  kRuleReward,  // Ground-truth task reward (non-NN reward module, §9).
  kRuleCost,    // Ground-truth safety cost (Safe-RLHF cost model).
};

class RewardWorkerGroup : public ModelWorkerGroup {
 public:
  RewardWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                    Controller* controller, RealComputeOptions real, RewardSource source,
                    std::string output_column = "rewards");

  // compute_reward / compute_cost: one forward pass producing sample-level
  // scores in `output_column`.
  BatchFuture ComputeReward(const BatchFuture& batch, const RlhfWorkloadSpec& workload);

  // The learned scoring network (kLearnedNet only); lets callers install
  // pretrained reward-model weights (see examples/full_pipeline.cpp).
  PolicyNet& net();

 private:
  RewardSource source_;
  std::string output_column_;
  std::unique_ptr<PolicyNet> net_;  // Only for kLearnedNet.
};

}  // namespace hybridflow

#endif  // SRC_WORKERS_MODEL_WORKERS_H_
