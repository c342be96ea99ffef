#include "src/perf/perf_model.h"

#include "src/kvcache/block_manager.h"

#include <algorithm>
#include <cmath>

namespace hybridflow {

namespace {

// Representative TP group for timing: the first `tp` devices of the replica
// (rank-major layout puts a TP group on consecutive ranks).
std::vector<DeviceId> FirstN(const std::vector<DeviceId>& devices, int n) {
  HF_CHECK_LE(static_cast<size_t>(n), devices.size());
  return std::vector<DeviceId>(devices.begin(), devices.begin() + n);
}

// Representative DP group: ranks at stride pp*tp.
std::vector<DeviceId> Strided(const std::vector<DeviceId>& devices, int stride, int count) {
  std::vector<DeviceId> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    size_t index = static_cast<size_t>(i) * static_cast<size_t>(stride);
    HF_CHECK_LT(index, devices.size());
    out.push_back(devices[index]);
  }
  return out;
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

PerfModel::PerfModel(const ModelSpec& model, const ClusterSpec& cluster, bool scalar_head,
                     PerfParams params)
    : model_(model),
      cluster_(cluster),
      num_params_(scalar_head ? model.NumParamsScalarHead() : model.NumParams()),
      params_(params) {}

double PerfModel::FwdFlopsPerSequence(int64_t seq_len) const {
  HF_CHECK_GT(seq_len, 0);
  const double matmul = 2.0 * num_params_ * static_cast<double>(seq_len);
  const double attention = 2.0 * static_cast<double>(model_.hidden_size) *
                           static_cast<double>(model_.num_layers) *
                           static_cast<double>(seq_len) * static_cast<double>(seq_len) / 2.0;
  return matmul + attention;
}

double PerfModel::ComputeSeconds(double flops, double mfu) const {
  HF_CHECK_GT(mfu, 0.0);
  return flops / (cluster_.gpu.bf16_flops * mfu);
}

double PerfModel::UtilizationFactor(double tokens_per_microbatch) const {
  const double ratio = tokens_per_microbatch / params_.full_util_tokens;
  return std::clamp(ratio, params_.min_util_fraction, 1.0);
}

double PerfModel::TrainStepTime(const ParallelConfig& cfg, const std::vector<DeviceId>& devices,
                                int64_t sequences, int64_t seq_len, int num_microbatches) const {
  HF_CHECK(cfg.Valid());
  HF_CHECK_EQ(static_cast<int>(devices.size()), cfg.world_size());
  HF_CHECK_GT(num_microbatches, 0);
  const int64_t shard_sequences = CeilDiv(sequences, cfg.dp);
  const double shard_flops =
      3.0 * FwdFlopsPerSequence(seq_len) * static_cast<double>(shard_sequences);
  const double per_gpu_flops = shard_flops / static_cast<double>(cfg.model_parallel_size());
  const double tokens_per_microbatch = static_cast<double>(shard_sequences) *
                                       static_cast<double>(seq_len) /
                                       static_cast<double>(num_microbatches);
  double compute = ComputeSeconds(
      per_gpu_flops, params_.mfu_train * UtilizationFactor(tokens_per_microbatch));

  // Pipeline bubble: with m microbatches and p stages, the bubble fraction
  // is (p-1)/m of the useful work [54].
  compute *= 1.0 + static_cast<double>(cfg.pp - 1) / static_cast<double>(num_microbatches);

  // Tensor-parallel activation collectives: 2 all-reduces per layer in the
  // forward pass and 2 in the backward pass of BF16 activations.
  double tp_comm = 0.0;
  if (cfg.tp > 1) {
    const std::vector<DeviceId> tp_group = FirstN(devices, cfg.tp);
    const double tokens = static_cast<double>(shard_sequences) * static_cast<double>(seq_len);
    const double bytes_per_allreduce = tokens * static_cast<double>(model_.hidden_size) * 2.0;
    const double layers_per_stage =
        static_cast<double>(model_.num_layers) / static_cast<double>(cfg.pp);
    tp_comm = 4.0 * layers_per_stage * AllReduceTime(cluster_, tp_group, bytes_per_allreduce) *
              (1.0 - params_.tp_comm_overlap);
  }

  // Pipeline stage-boundary activation transfers (p2p per microbatch).
  double pp_comm = 0.0;
  if (cfg.pp > 1) {
    const double tokens_per_microbatch =
        static_cast<double>(shard_sequences) * static_cast<double>(seq_len) /
        static_cast<double>(num_microbatches);
    const double bytes = tokens_per_microbatch * static_cast<double>(model_.hidden_size) * 2.0;
    // Forward and backward each cross pp-1 boundaries per microbatch.
    pp_comm = 2.0 * static_cast<double>(cfg.pp - 1) *
              static_cast<double>(num_microbatches) *
              (bytes / cluster_.nvlink_bandwidth + cluster_.link_latency);
  }

  // Data-parallel gradient all-reduce of the FP32 gradient shard; partially
  // overlapped with backward compute.
  double dp_comm = 0.0;
  if (cfg.dp > 1) {
    const std::vector<DeviceId> dp_group =
        Strided(devices, cfg.model_parallel_size(), cfg.dp);
    const double grad_bytes =
        4.0 * num_params_ / static_cast<double>(cfg.model_parallel_size());
    dp_comm = AllReduceTime(cluster_, dp_group, grad_bytes) * (1.0 - params_.dp_comm_overlap);
  }

  // Optimizer update: stream master weights + moments + grads through HBM.
  const double update_bytes =
      ModelSpec::kTrainBytesPerParam * num_params_ / static_cast<double>(cfg.model_parallel_size());
  const double update = update_bytes / (cluster_.gpu.hbm_bandwidth * params_.hbm_efficiency);

  return compute + tp_comm + pp_comm + dp_comm + update;
}

double PerfModel::ZeroTrainStepTime(const ZeroConfig& zero, const std::vector<DeviceId>& devices,
                                    int64_t sequences, int64_t seq_len) const {
  HF_CHECK_EQ(static_cast<int>(devices.size()), zero.dp);
  const int64_t shard_sequences = CeilDiv(sequences, zero.dp);
  const double shard_flops =
      3.0 * FwdFlopsPerSequence(seq_len) * static_cast<double>(shard_sequences);
  const double shard_tokens =
      static_cast<double>(shard_sequences) * static_cast<double>(seq_len);
  double compute =
      ComputeSeconds(shard_flops, params_.mfu_train * UtilizationFactor(shard_tokens));

  // Gradient reduce-scatter (stage >= 2 shards grads) or all-reduce;
  // partially overlapped with backward compute.
  double grad_comm;
  const double grad_bytes = 4.0 * num_params_;
  if (zero.stage == ZeroStage::kNone) {
    grad_comm = AllReduceTime(cluster_, devices, grad_bytes);
  } else {
    grad_comm = ReduceScatterTime(cluster_, devices, grad_bytes);
  }
  grad_comm *= 1.0 - params_.dp_comm_overlap;

  // ZeRO-3 parameter all-gathers for forward and backward, partially
  // hidden behind layer compute (prefetching).
  double param_comm = 0.0;
  if (zero.stage == ZeroStage::kStage3 && zero.dp > 1) {
    param_comm = 2.0 * AllGatherTime(cluster_, devices, 2.0 * num_params_) *
                 (1.0 - params_.zero_comm_overlap);
  }

  const double update_bytes = ModelSpec::kTrainBytesPerParam * num_params_ /
                              static_cast<double>(std::max(1, zero.dp));
  const double update = update_bytes / (cluster_.gpu.hbm_bandwidth * params_.hbm_efficiency);

  return compute + grad_comm + param_comm + update;
}

double PerfModel::InferTime(const ParallelConfig& cfg, const std::vector<DeviceId>& devices,
                            int64_t sequences, int64_t seq_len) const {
  HF_CHECK(cfg.Valid());
  HF_CHECK_EQ(static_cast<int>(devices.size()), cfg.world_size());
  const int64_t shard_sequences = CeilDiv(sequences, cfg.dp);
  const double shard_flops =
      FwdFlopsPerSequence(seq_len) * static_cast<double>(shard_sequences);
  const double per_gpu_flops = shard_flops / static_cast<double>(cfg.model_parallel_size());
  double compute = ComputeSeconds(per_gpu_flops, params_.mfu_infer);
  // Pipeline fill overhead with microbatch count ~= shard batch.
  const double microbatches = std::max<double>(1.0, static_cast<double>(shard_sequences));
  compute *= 1.0 + static_cast<double>(cfg.pp - 1) / microbatches;

  double tp_comm = 0.0;
  if (cfg.tp > 1) {
    const std::vector<DeviceId> tp_group = FirstN(devices, cfg.tp);
    const double tokens = static_cast<double>(shard_sequences) * static_cast<double>(seq_len);
    const double bytes_per_allreduce = tokens * static_cast<double>(model_.hidden_size) * 2.0;
    const double layers_per_stage =
        static_cast<double>(model_.num_layers) / static_cast<double>(cfg.pp);
    tp_comm = 2.0 * layers_per_stage * AllReduceTime(cluster_, tp_group, bytes_per_allreduce) *
              (1.0 - params_.tp_comm_overlap);
  }
  return compute + tp_comm;
}

double PerfModel::ZeroInferTime(const ZeroConfig& zero, const std::vector<DeviceId>& devices,
                                int64_t sequences, int64_t seq_len) const {
  const ParallelConfig cfg{1, 1, zero.dp};
  double time = InferTime(cfg, devices, sequences, seq_len);
  if (zero.stage == ZeroStage::kStage3 && zero.dp > 1) {
    // One parameter all-gather for the forward pass, partially prefetched.
    time += AllGatherTime(cluster_, devices, 2.0 * num_params_) *
            (1.0 - params_.zero_comm_overlap);
  }
  return time;
}

GenTimeBreakdown PerfModel::GenerateTime(const GenParallelConfig& gen,
                                         const std::vector<DeviceId>& replica_devices,
                                         int64_t batch, int64_t prompt_len, int64_t response_len,
                                         double kv_budget_bytes, bool use_kv_cache) const {
  HF_CHECK_EQ(static_cast<int>(replica_devices.size()), gen.pp * gen.tp);
  HF_CHECK_GT(batch, 0);
  HF_CHECK_GT(prompt_len, 0);
  HF_CHECK_GE(response_len, 0);
  const double mp = static_cast<double>(gen.pp * gen.tp);
  GenTimeBreakdown out;

  // --- KVCache capacity: how many sequences fit at full length. ------------
  const int64_t seq_total = prompt_len + response_len;
  int64_t wave_batch = batch;
  if (use_kv_cache) {
    // Capacity at paged block granularity (vLLM semantics): block-granular
    // allocation slightly under-packs relative to raw bytes. Closed form,
    // the answer an empty KvBlockManager would give; no cache is built.
    const double bytes_per_token = KvBytesPerTokenPerGpu(gen);
    if (bytes_per_token > 0.0 && kv_budget_bytes > 0.0) {
      KvBlockConfig blocks;
      blocks.block_tokens = 16;
      blocks.num_blocks = static_cast<int64_t>(
          kv_budget_bytes / (static_cast<double>(blocks.block_tokens) * bytes_per_token));
      wave_batch =
          std::clamp<int64_t>(KvBlockManager::CapacitySequences(blocks, seq_total), 1, batch);
    }
    out.waves = static_cast<int>(CeilDiv(batch, wave_batch));
    // Balance the batch across waves (a scheduler would): the wave count is
    // capacity-determined, the per-wave batch is not maximal.
    wave_batch = CeilDiv(batch, out.waves);
  }

  const std::vector<DeviceId> tp_group = ReplicaTpGroup(gen, replica_devices);
  const double layers_per_stage =
      static_cast<double>(model_.num_layers) / static_cast<double>(gen.pp);

  if (!use_kv_cache) {
    // NeMo-Aligner's KVCache-less generation engine (§8.2): each decode
    // step re-processes a chunk of the running context instead of reading
    // cached K/V. We model this as per-step FLOPs of
    //   2*N*b * (1 + context / kRecomputeChunk)
    // — a calibrated stand-in (full naive recompute would be context/1 and
    // is far slower than the engine the paper measured, which still
    // batches matmuls efficiently). The calibration target is the paper's
    // observation that generation dominates up to 81.2% of NeMo's
    // iteration and yields an order-of-magnitude overall slowdown.
    constexpr double kRecomputeChunk = 24.0;
    const double b = static_cast<double>(batch);
    const double r = static_cast<double>(response_len);
    const double p = static_cast<double>(prompt_len);
    const double avg_context = p + r / 2.0;
    const double prefill_flops = FwdFlopsPerSequence(prompt_len) * b;
    out.prefill_seconds = ComputeSeconds(prefill_flops / mp, params_.mfu_prefill);
    const double flops_per_step =
        2.0 * num_params_ * b * (1.0 + avg_context / kRecomputeChunk);
    double step_time = ComputeSeconds(flops_per_step / mp, params_.mfu_infer) +
                       params_.decode_overhead * layers_per_stage / 8.0;
    if (gen.pp > 1) {
      step_time *= 1.0 + params_.pipeline_decode_penalty * static_cast<double>(gen.pp - 1);
      step_time += static_cast<double>(gen.pp - 1) * cluster_.link_latency;
    }
    out.decode_seconds = step_time * r;
    if (gen.tp > 1) {
      const double bytes = b * static_cast<double>(model_.hidden_size) * 2.0;
      out.comm_seconds = 2.0 * layers_per_stage * r * AllReduceTime(cluster_, tp_group, bytes);
    }
    return out;
  }

  const double waves = static_cast<double>(out.waves);
  const double b = static_cast<double>(std::min(wave_batch, batch));

  // Prefill: compute-bound forward over the prompts (all waves).
  const double prefill_flops =
      FwdFlopsPerSequence(prompt_len) * static_cast<double>(batch);
  out.prefill_seconds = ComputeSeconds(prefill_flops / mp, params_.mfu_prefill);

  // Decode: per step, stream the weight shard once plus the live KV cache.
  const double weight_shard_bytes = param_bytes() / mp;
  const double avg_context = static_cast<double>(prompt_len) + static_cast<double>(response_len) / 2.0;
  const double kv_bytes_per_step = KvBytesPerTokenPerGpu(gen) * avg_context * b;
  const double bytes_per_step = weight_shard_bytes + kv_bytes_per_step;
  const double flops_per_step = 2.0 * num_params_ * b / mp;
  double step_time =
      std::max(bytes_per_step / (cluster_.gpu.hbm_bandwidth * params_.hbm_efficiency),
               ComputeSeconds(flops_per_step, params_.mfu_infer)) +
      params_.decode_overhead * layers_per_stage / 8.0;
  // Pipeline-parallel decode: every token crosses pp-1 stage handoffs that
  // cannot be hidden at RLHF generation batch sizes.
  if (gen.pp > 1) {
    step_time *= 1.0 + params_.pipeline_decode_penalty * static_cast<double>(gen.pp - 1);
    step_time += static_cast<double>(gen.pp - 1) * cluster_.link_latency;
  }
  out.decode_seconds = step_time * static_cast<double>(response_len) * waves;

  // TP collectives during decode: 2 all-reduces/layer/step of b*h BF16.
  if (gen.tp > 1) {
    const double bytes = b * static_cast<double>(model_.hidden_size) * 2.0;
    const double per_step = 2.0 * layers_per_stage * AllReduceTime(cluster_, tp_group, bytes);
    out.comm_seconds = per_step * static_cast<double>(response_len) * waves;
  }
  return out;
}

double PerfModel::PrefillStepTime(const GenParallelConfig& gen,
                                  const std::vector<DeviceId>& replica_devices,
                                  const std::vector<int64_t>& sequence_tokens) const {
  HF_CHECK_EQ(static_cast<int>(replica_devices.size()), gen.pp * gen.tp);
  const double mp = static_cast<double>(gen.pp * gen.tp);
  double flops = 0.0;
  for (int64_t tokens : sequence_tokens) {
    flops += FwdFlopsPerSequence(tokens);
  }
  return ComputeSeconds(flops / mp, params_.mfu_prefill);
}

double PerfModel::DecodeStepTime(const GenParallelConfig& gen,
                                 const std::vector<DeviceId>& replica_devices, int64_t rows,
                                 int64_t context_tokens) const {
  HF_CHECK_EQ(static_cast<int>(replica_devices.size()), gen.pp * gen.tp);
  HF_CHECK_GT(rows, 0);
  HF_CHECK_GE(context_tokens, 0);
  const double mp = static_cast<double>(gen.pp * gen.tp);
  const double layers_per_stage =
      static_cast<double>(model_.num_layers) / static_cast<double>(gen.pp);
  const double weight_shard_bytes = param_bytes() / mp;
  const double kv_bytes =
      KvBytesPerTokenPerGpu(gen) * static_cast<double>(context_tokens);
  const double bytes_per_step = weight_shard_bytes + kv_bytes;
  const double flops_per_step = 2.0 * num_params_ * static_cast<double>(rows) / mp;
  double step_time =
      std::max(bytes_per_step / (cluster_.gpu.hbm_bandwidth * params_.hbm_efficiency),
               ComputeSeconds(flops_per_step, params_.mfu_infer)) +
      params_.decode_overhead * layers_per_stage / 8.0;
  if (gen.pp > 1) {
    step_time *= 1.0 + params_.pipeline_decode_penalty * static_cast<double>(gen.pp - 1);
    step_time += static_cast<double>(gen.pp - 1) * cluster_.link_latency;
  }
  return step_time;
}

std::vector<DeviceId> PerfModel::ReplicaTpGroup(const GenParallelConfig& gen,
                                                const std::vector<DeviceId>& replica_devices) {
  HF_CHECK_EQ(static_cast<int>(replica_devices.size()), gen.pp * gen.tp);
  return FirstN(replica_devices, gen.tp);
}

double PerfModel::DecodeCommStepTime(const GenParallelConfig& gen,
                                     const std::vector<DeviceId>& tp_group, int64_t rows) const {
  HF_CHECK_EQ(static_cast<int>(tp_group.size()), gen.tp);
  if (gen.tp <= 1) {
    return 0.0;
  }
  const double layers_per_stage =
      static_cast<double>(model_.num_layers) / static_cast<double>(gen.pp);
  const double bytes =
      static_cast<double>(rows) * static_cast<double>(model_.hidden_size) * 2.0;
  return 2.0 * layers_per_stage * AllReduceTime(cluster_, tp_group, bytes);
}

double PerfModel::TrainMemoryPerGpu(const ParallelConfig& cfg, int64_t tokens_per_microbatch,
                                    int num_microbatches) const {
  HF_CHECK_GT(num_microbatches, 0);
  const double mp = static_cast<double>(cfg.model_parallel_size());
  const double state = ModelSpec::kTrainBytesPerParam * num_params_ / mp;
  // Pipeline parallelism keeps up to `pp` microbatches of activations live.
  const double live_microbatches = std::min<double>(cfg.pp, num_microbatches);
  const double activations = model_.ActivationBytesPerToken() *
                             static_cast<double>(tokens_per_microbatch) * live_microbatches /
                             static_cast<double>(cfg.tp) / static_cast<double>(cfg.pp);
  return state + activations;
}

double PerfModel::ZeroTrainMemoryPerGpu(const ZeroConfig& zero,
                                        int64_t tokens_per_microbatch) const {
  const double state = ZeroTrainStateBytesPerGpu(num_params_, zero);
  const double activations =
      model_.ActivationBytesPerToken() * static_cast<double>(tokens_per_microbatch);
  return state + activations;
}

double PerfModel::InferMemoryPerGpu(const ParallelConfig& cfg) const {
  return param_bytes() / static_cast<double>(cfg.model_parallel_size());
}

double PerfModel::GenParamBytesPerGpu(const GenParallelConfig& gen) const {
  return param_bytes() / static_cast<double>(gen.pp * gen.tp);
}

double PerfModel::KvBytesPerTokenPerGpu(const GenParallelConfig& gen) const {
  return model_.KvCacheBytesPerToken() / static_cast<double>(gen.tp) /
         static_cast<double>(gen.pp);
}

}  // namespace hybridflow
