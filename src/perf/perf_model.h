// Analytical performance simulators for training, inference, and
// auto-regressive generation workloads (the `simu` module of Appendix C,
// following llm-analysis [42] and DistServe [92] style roofline models).
//
// Training and inference are compute-bound: time = FLOPs / (peak * MFU)
// plus tensor-parallel activation collectives, the pipeline bubble, and the
// data-parallel gradient all-reduce. Generation decode is memory-bound:
// each step streams the weight shard and the KV cache from HBM. A
// no-KVCache mode (NeMo-Aligner, §8.2) recomputes the full forward pass per
// generated token.
#ifndef SRC_PERF_PERF_MODEL_H_
#define SRC_PERF_PERF_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/model/model_spec.h"
#include "src/parallel/parallel_config.h"
#include "src/parallel/zero_config.h"
#include "src/sim/collective.h"
#include "src/sim/topology.h"

namespace hybridflow {

struct PerfParams {
  double mfu_train = 0.45;    // Sustained fraction of peak FLOPs in training.
  double mfu_infer = 0.50;    // ... in single-forward inference.
  double mfu_prefill = 0.55;  // ... in generation prefill (large matmuls).
  double hbm_efficiency = 0.75;  // Achievable fraction of peak HBM bandwidth.
  double decode_overhead = 15e-6;  // Fixed per-decode-step kernel launch cost.
  // Fraction of tensor-parallel activation collectives hidden behind
  // compute (Megatron sequence parallelism + async collectives).
  double tp_comm_overlap = 0.3;
  // Fraction of the DP gradient all-reduce hidden behind backward compute
  // (Megatron/DDP overlap); the remainder is exposed latency.
  double dp_comm_overlap = 0.7;
  // Fraction of ZeRO-3 parameter all-gathers hidden behind compute.
  double zero_comm_overlap = 0.3;
  // Per-token pipeline handoff cost in generation: each decode step crosses
  // pp-1 stage boundaries that cannot be hidden at batch sizes typical of
  // RLHF generation.
  double pipeline_decode_penalty = 0.08;
  // Kernel efficiency saturates with per-GPU work: below this many tokens
  // per microbatch per GPU, achieved MFU degrades linearly (the paper's
  // Â§8.3 observation that fixed global batches stop scaling on large
  // clusters as the per-worker batch shrinks).
  double full_util_tokens = 8192.0;
  double min_util_fraction = 0.35;
};

struct GenTimeBreakdown {
  double prefill_seconds = 0.0;
  double decode_seconds = 0.0;
  double comm_seconds = 0.0;  // TP collectives during decode.
  int waves = 1;              // KVCache-capacity-limited batch waves.

  double total() const { return prefill_seconds + decode_seconds + comm_seconds; }
};

class PerfModel {
 public:
  // `scalar_head` selects the critic/reward-model variant whose LM head is
  // replaced by a scalar output (§2.1).
  PerfModel(const ModelSpec& model, const ClusterSpec& cluster, bool scalar_head = false,
            PerfParams params = PerfParams());

  const ModelSpec& model() const { return model_; }
  double num_params() const { return num_params_; }
  double param_bytes() const { return 2.0 * num_params_; }

  // --- Timing ---------------------------------------------------------------
  // One 3D-parallel training step over `sequences` sequences of `seq_len`
  // tokens on `devices` (rank-major order, size cfg.world_size()).
  double TrainStepTime(const ParallelConfig& cfg, const std::vector<DeviceId>& devices,
                       int64_t sequences, int64_t seq_len, int num_microbatches) const;

  // ZeRO data-parallel training step (DeepSpeed-Chat / OpenRLHF baselines).
  double ZeroTrainStepTime(const ZeroConfig& zero, const std::vector<DeviceId>& devices,
                           int64_t sequences, int64_t seq_len) const;

  // Single forward pass over `sequences` sequences of `seq_len` tokens.
  double InferTime(const ParallelConfig& cfg, const std::vector<DeviceId>& devices,
                   int64_t sequences, int64_t seq_len) const;

  // Forward pass with ZeRO-3-sharded parameters: adds the per-layer
  // parameter all-gathers a sharded model needs for inference
  // (DeepSpeed-Chat's colocated reference/reward models).
  double ZeroInferTime(const ZeroConfig& zero, const std::vector<DeviceId>& devices,
                       int64_t sequences, int64_t seq_len) const;

  // Auto-regressive generation on ONE model replica sharded pg x tg over
  // `replica_devices`. `batch` prompts; `kv_budget_bytes` is the per-GPU
  // memory available for KV cache (best-effort allocation, §8.4). When
  // `use_kv_cache` is false every step recomputes the full forward pass.
  GenTimeBreakdown GenerateTime(const GenParallelConfig& gen,
                                const std::vector<DeviceId>& replica_devices, int64_t batch,
                                int64_t prompt_len, int64_t response_len,
                                double kv_budget_bytes, bool use_kv_cache) const;

  // --- Per-step costs for the continuous-batching rollout engine -------------
  // These expose the internals of GenerateTime at engine-step granularity so
  // src/rollout/ can charge time from the actual batch composition instead
  // of the closed-form wave approximation.
  //
  // Prefill of newly admitted sequences (one entry per sequence, its prompt
  // length): compute-bound forward over the listed prompts.
  double PrefillStepTime(const GenParallelConfig& gen,
                         const std::vector<DeviceId>& replica_devices,
                         const std::vector<int64_t>& sequence_tokens) const;
  // One decode step over `rows` running sequences whose cached contexts
  // total `context_tokens`: streams the weight shard plus the live KV once.
  double DecodeStepTime(const GenParallelConfig& gen,
                        const std::vector<DeviceId>& replica_devices, int64_t rows,
                        int64_t context_tokens) const;
  // TP activation collectives of one decode step over `rows` sequences.
  // `tp_group` is ReplicaTpGroup's answer, which callers pricing many steps
  // of one replica build once.
  double DecodeCommStepTime(const GenParallelConfig& gen, const std::vector<DeviceId>& tp_group,
                            int64_t rows) const;
  // The TP group that stands for a generation replica in timing: its first
  // gen.tp devices (rank-major layout puts a TP group on consecutive ranks).
  static std::vector<DeviceId> ReplicaTpGroup(const GenParallelConfig& gen,
                                              const std::vector<DeviceId>& replica_devices);

  // --- Memory (per GPU, bytes) -----------------------------------------------
  double TrainMemoryPerGpu(const ParallelConfig& cfg, int64_t tokens_per_microbatch,
                           int num_microbatches) const;
  double ZeroTrainMemoryPerGpu(const ZeroConfig& zero, int64_t tokens_per_microbatch) const;
  double InferMemoryPerGpu(const ParallelConfig& cfg) const;
  double GenParamBytesPerGpu(const GenParallelConfig& gen) const;
  // KV bytes per cached token per GPU under tg-way sharding.
  double KvBytesPerTokenPerGpu(const GenParallelConfig& gen) const;

 private:
  double FwdFlopsPerSequence(int64_t seq_len) const;
  double ComputeSeconds(double flops, double mfu) const;
  // Achieved-utilization multiplier for a given per-GPU microbatch size.
  double UtilizationFactor(double tokens_per_microbatch) const;

  ModelSpec model_;
  ClusterSpec cluster_;
  double num_params_;
  PerfParams params_;
};

}  // namespace hybridflow

#endif  // SRC_PERF_PERF_MODEL_H_
