// The complete LLM alignment pipeline (§1): pre-training is assumed; this
// example runs the remaining three stages end to end on the simulated
// cluster with real (toy-scale) numerics:
//
//   Stage A  SFT: fine-tune the base policy on demonstration data.
//   Stage B  Reward modeling: fit a scalar-head net to preference pairs
//            (Bradley–Terry), standing in for human-preference data.
//   Stage C  RLHF: PPO with the *learned* reward model (not the ground
//            truth) driving the actor, exactly the paper's setting.
//
// Run: ./full_pipeline [rlhf_iterations]
//
// Observability artifacts written to the working directory
// (docs/OBSERVABILITY.md):
//   full_pipeline_trace.json      — merged dual-plane Chrome trace
//                                   (incl. per-sequence rollout spans)
//   full_pipeline_telemetry.jsonl — one JSONL record per RLHF iteration
//   full_pipeline_metrics.jsonl   — final metrics-registry dump
//   full_pipeline_seq_events.jsonl — data-plane rollout lifecycle events
//
// Analyze them offline with tools/hfstat.cc:
//   hfstat full_pipeline_metrics.jsonl full_pipeline_seq_events.jsonl

#include <cstdlib>
#include <iostream>

#include "src/baselines/system_builder.h"
#include "src/common/strings.h"
#include "src/obs/dual_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/seq_events.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/rlhf/pretraining.h"
#include "src/tensor/parallel.h"

int main(int argc, char** argv) {
  using namespace hybridflow;
  const int rlhf_iterations = argc > 1 ? std::atoi(argv[1]) : 25;
  const AlignmentTask task;
  WallclockTracer::Global().SetEnabled(true);
  // The data plane emits one span per GEMM; decimate the tensor category
  // 16:1 so the dual-plane trace stays small while every other category
  // (controller dispatch, worker compute, resharding) stays complete.
  WallclockTracer::Global().SetCategorySampling("tensor", 16);

  // --- Stage A: SFT ---------------------------------------------------------
  PolicyNetConfig actor_config;
  actor_config.vocab_size = task.vocab_size;
  actor_config.context_window = 4;
  actor_config.embed_dim = 16;
  actor_config.hidden_dim = 32;
  Rng actor_rng(11);
  PolicyNet sft_net(actor_config, actor_rng);
  SftConfig sft_config;
  sft_config.steps = 300;
  sft_config.lr = 0.02f;
  SftReport sft = RunSft(&sft_net, task, sft_config);
  std::cout << StrFormat(
      "Stage A (SFT):     loss %.3f -> %.3f, greedy rule accuracy %.0f%%\n", sft.initial_loss,
      sft.final_loss, 100.0 * sft.greedy_accuracy);

  // --- Stage B: reward modeling ----------------------------------------------
  PolicyNetConfig reward_config = actor_config;
  reward_config.scalar_head = true;
  Rng reward_rng(12);
  PolicyNet reward_net(reward_config, reward_rng);
  RewardTrainingConfig reward_training;
  reward_training.steps = 200;
  reward_training.pairs_per_step = 24;
  reward_training.lr = 0.02f;
  RewardTrainingReport rm = TrainRewardModel(&reward_net, task, reward_training);
  std::cout << StrFormat(
      "Stage B (RM):      Bradley-Terry loss %.3f -> %.3f, held-out ranking accuracy %.0f%%\n",
      rm.initial_loss, rm.final_loss, 100.0 * rm.ranking_accuracy);

  // --- Stage C: RLHF with the learned reward model ----------------------------
  Controller controller(ClusterSpec::WithGpus(8));
  auto pool = controller.CreatePoolRange("all", 0, 8);
  RealComputeOptions real;
  real.enabled = true;
  real.seed = 13;
  real.task = task;
  real.net = actor_config;

  WorkerGroupOptions actor_options;
  actor_options.name = "actor";
  actor_options.model = ModelSpec::Llama7B();
  actor_options.trainable = true;
  actor_options.train_cfg = {1, 4, 2};
  ActorOptions actor_engine;
  actor_engine.gen = GenParallelConfig{1, 2};
  // Continuous-batching rollout with per-sequence lifecycle recording: the
  // event log feeds the TTFT/TPOT quantile metrics, the per-sequence spans
  // in the merged trace, and the seq-events JSONL artifact hfstat reads.
  SeqEventLog seq_events;
  actor_engine.rollout.mode = RolloutMode::kContinuous;
  actor_engine.rollout.event_log = &seq_events;
  ActorWorkerGroup actor(actor_options, pool, &controller, real, actor_engine);
  actor.net().CopyFrom(sft_net);  // RLHF starts from the SFT policy.

  WorkerGroupOptions critic_options;
  critic_options.name = "critic";
  critic_options.model = ModelSpec::Llama7B();
  critic_options.scalar_head = true;
  critic_options.trainable = true;
  critic_options.train_cfg = {1, 4, 2};
  CriticWorkerGroup critic(critic_options, pool, &controller, real);

  WorkerGroupOptions ref_options;
  ref_options.name = "reference";
  ref_options.model = ModelSpec::Llama7B();
  ref_options.train_cfg = {1, 4, 2};
  ReferenceWorkerGroup reference(ref_options, pool, &controller, real, &actor.net());

  WorkerGroupOptions reward_options;
  reward_options.name = "reward";
  reward_options.model = ModelSpec::Llama7B();
  reward_options.scalar_head = true;
  reward_options.train_cfg = {1, 4, 2};
  RewardWorkerGroup reward(reward_options, pool, &controller, real,
                           RewardSource::kLearnedNet);
  // Inject the trained reward model into the worker.
  reward.net().CopyFrom(reward_net);

  PromptDataset dataset(task, 14);
  RlhfProgramConfig program_config;
  program_config.algorithm = RlhfAlgorithm::kPpo;
  program_config.real_batch = 64;
  RlhfModels models;
  models.actor = &actor;
  models.critic = &critic;
  models.reference = &reference;
  models.reward = &reward;
  RlhfProgram program(program_config, models, &controller, &dataset);
  TelemetrySink telemetry("full_pipeline_telemetry.jsonl");
  program.SetTelemetrySink(telemetry.ok() ? &telemetry : nullptr);

  std::cout << "Stage C (RLHF):    PPO driven by the learned reward model\n";
  std::cout << "iter | learned-RM reward | ground-truth toxicity | coherence | tokens/s\n";
  double last_tokens_per_sec = 0.0;
  for (int i = 0; i < rlhf_iterations; ++i) {
    IterationMetrics metrics = program.RunIteration();
    last_tokens_per_sec = metrics.throughput_tokens_per_sec;
    if (i % 5 == 0 || i == rlhf_iterations - 1) {
      std::cout << StrFormat("%4d | %17.3f | %21.4f | %9.3f | %8.0f\n", i, metrics.mean_reward,
                             metrics.toxicity_rate, metrics.coherence_rate,
                             metrics.throughput_tokens_per_sec);
    }
  }
  std::cout << "\nThe actor optimizes the *learned* reward; because the reward model\n"
               "ranks like the ground truth, toxicity falls and coherence rises even\n"
               "though the RL loop never sees the true task reward.\n";

  // --- Kernel wall-time stats -------------------------------------------------
  // The tensor kernels record one `tensor.kernel_us` histogram per op
  // label (docs/KERNELS.md); summarize them next to the simulated
  // throughput so kernel cost and tokens/s read side by side.
  std::cout << StrFormat("\nKernel wall-time (data plane, %d kernel workers; final sim "
                         "throughput %.0f tokens/s):\n",
                         TensorThreads(), last_tokens_per_sec);
  std::cout << "op                   |    calls | total ms | mean us\n";
  const std::vector<double> kernel_bounds = ExponentialBuckets(1.0, 4.0, 10);
  for (const char* op :
       {"matmul", "matmul_bwd", "block_attention", "block_attention_bwd", "layernorm",
        "layernorm_bwd", "layernorm_matmul", "layernorm_matmul_bwd", "log_softmax",
        "log_softmax_bwd", "elementwise", "elementwise_bwd", "adam_step"}) {
    const Histogram& h = MetricsRegistry::Global().GetHistogram("tensor.kernel_us",
                                                                kernel_bounds, {{"op", op}});
    if (h.TotalCount() == 0) {
      continue;
    }
    std::cout << StrFormat("%-20s | %8d | %8.1f | %7.2f\n", op,
                           static_cast<int>(h.TotalCount()), h.Sum() / 1000.0,
                           h.Sum() / static_cast<double>(h.TotalCount()));
  }

  // --- Sequence latency (data plane) -----------------------------------------
  const SeqLatencySummary seq_latency =
      SummarizeSeqLatencies(DeriveSeqLatencies(seq_events.Snapshot(), /*wall=*/true));
  std::cout << StrFormat("\nRollout sequence latency (data plane, %lld sequences, "
                         "%lld preemptions):\n",
                         static_cast<long long>(seq_latency.sequences),
                         static_cast<long long>(seq_latency.preemptions));
  std::cout << StrFormat("  TTFT  p50 %.0f us, p99 %.0f us | TPOT p50 %.1f us, p99 %.1f us\n",
                         seq_latency.ttft.p50, seq_latency.ttft.p99, seq_latency.tpot.p50,
                         seq_latency.tpot.p99);

  // --- Observability artifacts ------------------------------------------------
  if (WriteDualPlaneTrace(controller.cluster(), "full_pipeline_trace.json", &seq_events)) {
    std::cout << "\nwrote full_pipeline_trace.json ("
              << controller.cluster().trace().size() << " sim spans, "
              << WallclockTracer::Global().size() << " wall spans, " << seq_events.size()
              << " seq events; open in chrome://tracing or Perfetto)\n";
  }
  if (telemetry.ok()) {
    std::cout << "wrote " << telemetry.path() << " (" << telemetry.records_written()
              << " iteration records)\n";
  }
  if (MetricsRegistry::Global().WriteJsonLines("full_pipeline_metrics.jsonl")) {
    std::cout << "wrote full_pipeline_metrics.jsonl (" << MetricsRegistry::Global().size()
              << " metrics)\n";
  }
  if (seq_events.WriteJsonl("full_pipeline_seq_events.jsonl")) {
    std::cout << "wrote full_pipeline_seq_events.jsonl (" << seq_events.size() << " events)\n";
  }
  return 0;
}
