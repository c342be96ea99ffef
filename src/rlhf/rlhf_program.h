// Single-process RLHF dataflow programs (Figure 6).
//
// Each algorithm is a short controller-side script over the model classes'
// primitive APIs — this is the paper's flexibility claim made concrete:
// PPO, ReMax, Safe-RLHF and GRPO differ only in their RlhfDataflow entry
// (src/rlhf/dataflow.h): which models exist, how many generation passes
// run, and the numerical configuration of compute_advantage / the losses.
#ifndef SRC_RLHF_RLHF_PROGRAM_H_
#define SRC_RLHF_RLHF_PROGRAM_H_

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/controller/controller.h"
#include "src/rlhf/advantage.h"
#include "src/rlhf/dataflow.h"
#include "src/rlhf/kl_controller.h"
#include "src/workers/model_workers.h"

namespace hybridflow {

class TelemetrySink;

struct RlhfProgramConfig {
  RlhfAlgorithm algorithm = RlhfAlgorithm::kPpo;  // hflint: allow(one-algorithm-switch)
  RlhfWorkloadSpec workload;
  AdvantageConfig advantage;
  PolicyLossConfig policy_loss;
  ValueLossConfig value_loss;
  float ptx_coef = 0.0f;  // Safe-RLHF / PPO-ptx pretraining-loss mix-in.
  // Recompute response log-probs with a dedicated forward pass in stage 2
  // instead of reusing the generation-time values ("Optional in PPO",
  // Table 4). Adds one actor inference op per iteration.
  bool recompute_log_probs = false;
  // Adaptive KL penalty (InstructGPT): when enabled, the advantage
  // computation's kl_coef tracks `adaptive_kl.target_kl`.
  bool use_adaptive_kl = false;
  AdaptiveKlConfig adaptive_kl;
  // Toy-scale prompts per iteration for the real data plane.
  int64_t real_batch = 32;
  // One-step-off asynchronous PPO (LlamaRL-style): iteration k's generation
  // is issued before iteration k-1's experience-prep + training stages, so
  // rollout devices overlap with training devices on the performance plane.
  // The data plane trains on experience generated by a policy up to
  // `async_staleness` updates old; the generation-time log-probs are the
  // behavior-policy snapshot that keeps the PPO ratio correct (see
  // docs/ASYNC_PIPELINE.md).
  bool async_pipeline = false;
  // Bounded staleness / queue depth: 0 degenerates to the synchronous
  // generate-then-train order (bitwise-identical to async_pipeline=false);
  // 1 is classic one-step-off.
  int64_t async_staleness = 1;
};

// Non-owning view of the worker groups participating in a dataflow. Exactly
// the algorithm's RlhfDataflow roles are set; the others are null (e.g. the
// critic for ReMax).
struct RlhfModels {
  ActorWorkerGroup* actor = nullptr;
  CriticWorkerGroup* critic = nullptr;
  ReferenceWorkerGroup* reference = nullptr;
  RewardWorkerGroup* reward = nullptr;
  RewardWorkerGroup* cost = nullptr;  // Safe-RLHF.
};

struct IterationMetrics {
  double iteration_seconds = 0.0;
  double throughput_tokens_per_sec = 0.0;
  // Real-plane learning signals (zero when the data plane is disabled).
  double mean_reward = 0.0;
  double toxicity_rate = 0.0;
  double coherence_rate = 0.0;
  double actor_loss = 0.0;
  double critic_loss = 0.0;
  double mean_kl = 0.0;
  double kl_coef = 0.0;  // KL coefficient in effect (adaptive or fixed).
  // Mean global L2 gradient norm across this iteration's actor updates.
  double grad_norm = 0.0;
  // Mean fraction of tokens outside the PPO clip range across updates.
  double clip_fraction = 0.0;
  // Real elapsed time of the controller loop for this iteration.
  double wall_clock_seconds = 0.0;
  // Performance-plane detail.
  double transition_seconds = 0.0;
  double generation_seconds = 0.0;
  // Busy seconds by op category ("generate", "infer", "train", "reshard").
  std::map<std::string, double> busy_by_category;
  // Async pipeline: fraction of the iteration makespan during which a
  // "generate" span overlapped a "train" or "infer" span (0 when sync),
  // policy-updates between the consumed batch's generation and its
  // training, and staged batches left in the queue after this iteration.
  double overlap_fraction = 0.0;
  int64_t async_staleness = 0;
  int64_t async_queue_depth = 0;
};

class RlhfProgram {
 public:
  RlhfProgram(RlhfProgramConfig config, RlhfModels models, Controller* controller,
              PromptDataset* dataset);

  // Runs one full RLHF iteration: generation -> experience preparation ->
  // learning (§2.1's three stages). Returns timing and learning metrics.
  //
  // In async_pipeline mode this consumes the oldest staged rollout and
  // issues the next iteration's generation *before* training, so the
  // generation spans overlap the experience-prep/training spans on the
  // performance plane; the first call primes the queue.
  IterationMetrics RunIteration();

  // Async pipeline only: trains on one staged rollout without issuing a
  // replacement generation — the flush path for the final iteration(s).
  // Requires pending_experience() > 0.
  IterationMetrics DrainIteration();

  // Staged rollouts generated but not yet trained on (0 in sync mode).
  int64_t pending_experience() const { return static_cast<int64_t>(staged_.size()); }

  const RlhfProgramConfig& config() const { return config_; }

  // Optional structured-telemetry sink: when set, RunIteration appends one
  // JSONL record per iteration (loss, KL, reward, grad norm, clip
  // fraction, sim makespan, wall-clock ms, tokens/s). Not owned; must
  // outlive the program or be reset to nullptr.
  void SetTelemetrySink(TelemetrySink* sink) { telemetry_ = sink; }

 private:
  // One generated-but-not-yet-trained rollout. `batch` carries the
  // behavior-policy log-prob snapshot (its "log_probs" column, captured at
  // generation time — recomputed under the generating weights when
  // recompute_log_probs is on), so training `policy_version` updates later
  // still forms the correct PPO importance ratio.
  struct StagedExperience {
    BatchFuture batch;
    BatchFuture greedy_rewards;  // ReMax variance-reduction baseline pass.
    int64_t policy_version = 0;  // updates_applied_ at generation time.
  };

  void ValidateModels() const;
  // Stages 0-1: load prompts, generate (plus the ReMax greedy pass and the
  // optional behavior log-prob recompute).
  StagedExperience GenerateExperience();
  // Stages 2-3 plus metrics/telemetry for one staged rollout.
  IterationMetrics TrainOnExperience(StagedExperience experience, size_t trace_begin,
                                     double wall_start_us);

  RlhfProgramConfig config_;
  const RlhfDataflow& dataflow_;
  RlhfModels models_;
  Controller* controller_;
  PromptDataset* dataset_;
  AdaptiveKlController kl_controller_;
  TelemetrySink* telemetry_ = nullptr;
  int64_t iterations_run_ = 0;
  int64_t updates_applied_ = 0;  // Policy version: iterations trained.
  std::deque<StagedExperience> staged_;  // Async pipeline staleness queue.
};

}  // namespace hybridflow

#endif  // SRC_RLHF_RLHF_PROGRAM_H_
