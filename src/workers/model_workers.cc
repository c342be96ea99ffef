#include "src/workers/model_workers.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/obs/trace.h"
#include "src/workers/token_context.h"

namespace hybridflow {

namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Next-token NLL over a pretraining corpus: each proper prefix of each
// sequence (its last context_window tokens, left-padded) predicts the
// token after it.
Tensor PretrainNll(const PolicyNet& net, const DataBatch::TokenColumn& corpus) {
  std::vector<std::vector<int64_t>> contexts;
  std::vector<int64_t> targets;
  for (const std::vector<int64_t>& sequence : corpus) {
    for (size_t k = 1; k < sequence.size(); ++k) {
      contexts.push_back(ContextWindow({}, sequence, k, net.config().context_window));
      targets.push_back(sequence[k]);
    }
  }
  return PretrainLoss(net.LogProb(contexts, targets));
}

}  // namespace

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

ActorWorkerGroup::ActorWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                                   Controller* controller, RealComputeOptions real,
                                   ActorOptions actor)
    : ModelWorkerGroup(std::move(options), std::move(pool), controller, std::move(real)),
      actor_(std::move(actor)),
      sample_rng_(real_.seed ^ 0xAC708EEDULL) {
  GenParallelConfig gen = actor_.gen;
  if (actor_.engine_mode == ActorEngineMode::kShared) {
    gen = GenParallelConfig{groups().train_config().pp, groups().train_config().tp};
  }
  std::vector<DeviceId> gen_devices;
  if (actor_.engine_mode == ActorEngineMode::kTwoCopies) {
    HF_CHECK_MSG(actor_.gen_pool != nullptr, "kTwoCopies requires a generation pool");
    gen_devices = actor_.gen_pool->devices();
    // The standalone generation copy occupies its devices permanently.
    const double copy_bytes = perf().param_bytes() / static_cast<double>(gen.pp * gen.tp);
    for (DeviceId device : gen_devices) {
      controller_->cluster().memory(device).Allocate(name() + "_gen_copy", copy_bytes);
    }
  }
  engine_ = std::make_unique<HybridEngine>(options_.model, groups().train_config(), gen,
                                           actor_.engine_mode, controller_->spec(),
                                           pool_->devices(), std::move(gen_devices));
  if (real_.enabled) {
    Rng init_rng(real_.seed);
    net_ = std::make_unique<PolicyNet>(real_.net, init_rng);
    adam_ = std::make_unique<Adam>(net_->Parameters(), real_.adam);
  }
}

ProtocolContext ActorWorkerGroup::MakeProtocolContext() const {
  ProtocolContext context = ModelWorkerGroup::MakeProtocolContext();
  if (actor_.engine_mode == ActorEngineMode::kHybridFlow ||
      actor_.engine_mode == ActorEngineMode::kHybridFlowV) {
    context.gen = engine_->gen_config();
    context.method = engine_->grouping();
    context.has_gen = true;
  }
  return context;
}

TransferProtocol ActorWorkerGroup::GenerationProtocol() const {
  switch (actor_.engine_mode) {
    case ActorEngineMode::kHybridFlow:
    case ActorEngineMode::kHybridFlowV:
      return TransferProtocol::k3dAllMicroDp;
    case ActorEngineMode::kShared:
      return TransferProtocol::k3dProto;
    case ActorEngineMode::kDsChat:
    case ActorEngineMode::kTwoCopies:
      return TransferProtocol::kDpProto;
  }
  return TransferProtocol::k3dProto;
}

DataBatch ActorWorkerGroup::GenerateShard(const DataBatch& shard, bool do_sample,
                                          Rng& rng) const {
  RolloutLimits limits;
  limits.max_new_tokens = real_.task.response_len;
  limits.use_eos = real_.task.use_eos;
  limits.eos_token = real_.task.eos_token();
  RolloutEngine rollout_engine(*net_, limits, actor_.rollout);
  RolloutShardResult result =
      rollout_engine.Run(shard.Tokens("prompts"), do_sample, actor_.temperature, rng);
  rollout_stats_.Add(result.stats);
  DataBatch out = shard;
  out.SetTokens("responses", std::move(result.responses));
  out.SetFloat("log_probs", std::move(result.log_probs));
  return out;
}

double ActorWorkerGroup::GenerationSeconds(const RlhfWorkloadSpec& workload,
                                           GenTimeBreakdown* breakdown) const {
  const int replicas = engine_->NumGenReplicas();
  const int64_t per_replica = CeilDiv(workload.global_batch, replicas);
  const std::vector<DeviceId> replica_devices = engine_->GenReplicaDevices(0);
  const GenParallelConfig& gen = engine_->gen_config();

  // Best-effort KVCache budget: whatever memory remains on a replica device
  // after resident state and the gathered generation weights (§8.4).
  const DeviceMemory& memory = controller_->cluster().memory(replica_devices[0]);
  const double resident_params = ResidentParamBytesPerGpu();
  const double extra_gen_weights =
      std::max(0.0, last_transition_.peak_param_bytes - resident_params);
  const double kv_budget = std::max(1.0, memory.available() - extra_gen_weights);

  GenTimeBreakdown result;
  if (actor_.rollout.mode == RolloutMode::kContinuous && actor_.use_kv_cache) {
    // Per-step timing from actual block-granular scheduling replaces the
    // closed-form wave approximation (src/rollout/timing.h).
    const std::vector<NominalSequence> nominal(
        static_cast<size_t>(per_replica),
        NominalSequence{workload.prompt_len, workload.response_len});
    const RolloutSimResult sim = SimulateContinuousGeneration(
        perf(), gen, replica_devices, nominal, kv_budget, actor_.rollout);
    result = sim.time;
    last_rollout_sim_ = sim.stats;
    last_rollout_latency_ = sim.latency;
    // Sim-plane scheduler gauges; GenerationSeconds runs only on the
    // single controller thread, so last-write-wins is well defined.
    const RolloutStats& stats = sim.stats;
    const std::pair<const char*, double> gauges[] = {
        {"rollout.sim_steps", static_cast<double>(stats.steps)},
        {"rollout.sim_preemptions", static_cast<double>(stats.preemptions)},
        {"rollout.sim_max_running_batch", static_cast<double>(stats.max_running_batch)},
        {"rollout.sim_kv_high_water_blocks", static_cast<double>(stats.kv_high_water_blocks)},
        {"rollout.sim_kv_peak_utilization", stats.kv_peak_utilization},
        {"rollout.sim_resumes", static_cast<double>(stats.resumes)},
        {"rollout.sim_recomputed_tokens", static_cast<double>(stats.recomputed_tokens)},
        {"kvcache.prefix_hits_total", static_cast<double>(stats.prefix_skipped_tokens)},
        {"kvcache.shared_blocks", static_cast<double>(stats.shared_blocks_high_water)},
        {"rollout.sim_ttft_p50_s", sim.latency.ttft.p50},
        {"rollout.sim_ttft_p90_s", sim.latency.ttft.p90},
        {"rollout.sim_ttft_p99_s", sim.latency.ttft.p99},
        {"rollout.sim_tpot_p50_s", sim.latency.tpot.p50},
        {"rollout.sim_tpot_p90_s", sim.latency.tpot.p90},
        {"rollout.sim_tpot_p99_s", sim.latency.tpot.p99},
    };
    const MetricLabels plane{{"plane", "sim"}};
    for (const auto& [name, value] : gauges) {
      MetricsRegistry::Global().GetGauge(name, plane).Set(value);
    }
  } else {
    result = perf().GenerateTime(gen, replica_devices, per_replica, workload.prompt_len,
                                 workload.response_len, kv_budget, actor_.use_kv_cache);
  }
  if (breakdown != nullptr) {
    *breakdown = result;
  }
  return result.total();
}

BatchFuture ActorWorkerGroup::GenerateSequences(const BatchFuture& prompts,
                                                const RlhfWorkloadSpec& workload,
                                                bool do_sample) {
  const ProtocolContext context = MakeProtocolContext();
  const TransferProtocol protocol = GenerationProtocol();

  // --- Data plane --------------------------------------------------------
  // Replica generation is embarrassingly parallel: each primary rank works
  // on its own prompt shard with a deterministic per-(call, rank) RNG
  // stream, so results are reproducible regardless of thread scheduling.
  DataBatch collected;
  if (real_.enabled && !prompts.data.empty()) {
    HF_TRACE_SCOPE(name() + ".generate", "generate");
    generation_calls_ += 1;
    const uint64_t call_id = generation_calls_;
    std::vector<DataBatch> per_rank = DistributeBatch(protocol, prompts.data, context);
    std::vector<DataBatch> outputs(per_rank.size());
    const std::vector<int> primaries = PrimaryRanks(protocol, context);
    ThreadPool::Shared().ParallelFor(
        static_cast<int>(primaries.size()), [&](int index) {
          const int rank = primaries[static_cast<size_t>(index)];
          Rng shard_rng = sample_rng_.Fork(call_id * 4096 + static_cast<uint64_t>(rank));
          outputs[static_cast<size_t>(rank)] =
              GenerateShard(per_rank[static_cast<size_t>(rank)], do_sample, shard_rng);
        });
    collected = CollectBatch(protocol, outputs, context);
  }

  // --- Performance plane ---------------------------------------------------
  ClusterState& cluster = controller_->cluster();
  {
    HF_TRACE_SCOPE(name() + ".reshard", "reshard");
    last_transition_ = engine_->TrainToGenTransition();
  }
  last_transition_seconds_ = last_transition_.seconds;
  const SimTime ready = prompts.ready_time + TransferSeconds(prompts.nominal_bytes);

  std::vector<DeviceId> transition_devices = pool_->devices();
  std::vector<DeviceId> gen_devices = pool_->devices();
  if (actor_.engine_mode == ActorEngineMode::kTwoCopies) {
    gen_devices = actor_.gen_pool->devices();
    transition_devices.insert(transition_devices.end(), gen_devices.begin(), gen_devices.end());
  }

  const double resident_params = ResidentParamBytesPerGpu();

  SimTime gen_ready = ready;
  if (last_transition_.seconds > 0.0) {
    // Transient peak during the all-gather (Table 2 "Peak Mem."): touch the
    // tracker so per-device peaks reflect it, then release to the retained
    // buffer below.
    const double transient =
        std::max(0.0, last_transition_.peak_param_bytes - resident_params);
    for (DeviceId device : gen_devices) {
      cluster.memory(device).Allocate(name() + "_reshard_peak", transient);
    }
    gen_ready = cluster
                    .ScheduleOp(name() + ".reshard", "reshard", transition_devices, ready,
                                last_transition_.seconds)
                    .end;
    for (DeviceId device : gen_devices) {
      cluster.memory(device).FreeAll(name() + "_reshard_peak");
    }
  }

  // Weights retained across the generation stage: the generation shard,
  // minus whatever overlaps the resident training parameters (zero-
  // redundancy grouping reuses the training shard entirely, Â§5.3).
  double retained = 0.0;
  switch (actor_.engine_mode) {
    case ActorEngineMode::kShared:
    case ActorEngineMode::kTwoCopies:
      retained = 0.0;  // Same weights / permanently resident second copy.
      break;
    case ActorEngineMode::kHybridFlow: {
      const double gen_shard = perf().param_bytes() /
                               static_cast<double>(engine_->gen_config().pp *
                                                   engine_->gen_config().tp);
      retained = std::max(0.0, gen_shard - resident_params);
      break;
    }
    case ActorEngineMode::kHybridFlowV:
    case ActorEngineMode::kDsChat: {
      // No guaranteed overlap: a full generation shard plus the redundant
      // training-weight copy (grey boxes in Fig. 8a).
      retained = perf().param_bytes() /
                     static_cast<double>(engine_->gen_config().pp *
                                         engine_->gen_config().tp) +
                 last_transition_.redundant_bytes;
      break;
    }
  }
  for (DeviceId device : gen_devices) {
    cluster.memory(device).Allocate(name() + "_gen_weights", retained);
  }

  const double gen_seconds = GenerationSeconds(workload, &last_gen_);

  // KVCache occupancy during generation.
  const int replicas = engine_->NumGenReplicas();
  const int64_t per_replica = CeilDiv(workload.global_batch, replicas);
  const double kv_wanted = perf().KvBytesPerTokenPerGpu(engine_->gen_config()) *
                           static_cast<double>(workload.total_len()) *
                           static_cast<double>(per_replica);
  for (DeviceId device : gen_devices) {
    DeviceMemory& memory = cluster.memory(device);
    memory.Allocate(name() + "_kvcache", std::min(kv_wanted, std::max(0.0, memory.available())));
  }

  const TraceSpan& span =
      cluster.ScheduleOp(name() + ".generate", "generate", gen_devices, gen_ready, gen_seconds);

  for (DeviceId device : gen_devices) {
    cluster.memory(device).FreeAll(name() + "_kvcache");
    cluster.memory(device).FreeAll(name() + "_gen_weights");
  }

  return BatchFuture{std::move(collected), span.end, workload.NominalTransferBytes()};
}

BatchFuture ActorWorkerGroup::ComputeLogProb(const BatchFuture& batch,
                                             const RlhfWorkloadSpec& workload,
                                             const std::string& output_column) {
  const double duration = InferSeconds(workload.global_batch, workload.total_len());
  ComputeFn compute = [this, &output_column](const DataBatch& shard, int) {
    DataBatch out = shard;
    std::vector<int64_t> lengths;
    std::vector<std::vector<int64_t>> contexts = AllResponseContextsRagged(
        shard.Tokens("prompts"), shard.Tokens("responses"), real_.net.context_window,
        &lengths);
    std::vector<int64_t> chosen;
    for (const std::vector<int64_t>& response : shard.Tokens("responses")) {
      chosen.insert(chosen.end(), response.begin(), response.end());
    }
    Tensor log_probs = net_->LogProb(contexts, chosen);
    out.SetFloat(output_column, UnflattenRagged(log_probs.data(), lengths));
    return out;
  };
  return Dispatch("compute_log_prob", "infer", TransferProtocol::k3dProto, batch, duration,
                  compute, workload.NominalTransferBytes());
}

BatchFuture ActorWorkerGroup::ComputeLoss(const BatchFuture& pretrain,
                                          const RlhfWorkloadSpec& workload) {
  const double duration = InferSeconds(workload.global_batch, workload.prompt_len);
  ComputeFn compute = [this](const DataBatch& shard, int) {
    DataBatch out;
    out.SetFloat("pretrain_loss", {{PretrainNll(*net_, shard.Tokens("prompts")).item()}});
    return out;
  };
  return Dispatch("compute_loss", "infer", TransferProtocol::k3dProto, pretrain, duration,
                  compute, 0.0);
}

BatchFuture ActorWorkerGroup::UpdateActor(const BatchFuture& batch,
                                          const RlhfWorkloadSpec& workload,
                                          const ActorUpdateConfig& config) {
  const int64_t sequences = workload.minibatch();
  const double duration = TrainStepSeconds(sequences, workload.total_len());

  const int64_t total_rows = std::max<int64_t>(batch.data.batch_size(), 1);
  ComputeFn compute = [this, &config, total_rows](const DataBatch& shard, int) {
    DataBatch out;
    if (shard.empty()) {
      return out;
    }
    std::vector<std::vector<int64_t>> contexts = AllResponseContextsRagged(
        shard.Tokens("prompts"), shard.Tokens("responses"), real_.net.context_window,
        nullptr);
    std::vector<int64_t> chosen;
    for (const std::vector<int64_t>& response : shard.Tokens("responses")) {
      chosen.insert(chosen.end(), response.begin(), response.end());
    }
    const int64_t n = static_cast<int64_t>(chosen.size());
    Tensor logits = net_->Forward(contexts);
    Tensor log_probs = PickPerRow(LogSoftmax(logits), chosen);
    Tensor old_log_probs = Tensor::FromData({n}, FlattenColumn(shard.Float("log_probs")));
    Tensor advantages = Tensor::FromData({n}, FlattenColumn(shard.Float("advantages")));
    Tensor loss = PolicyLoss(log_probs, old_log_probs, advantages, config.loss);
    if (config.entropy_coef > 0.0f) {
      loss = Sub(loss, Scale(MeanEntropy(logits), config.entropy_coef));
    }
    if (config.ptx_coef > 0.0f && config.pretrain != nullptr && !config.pretrain->empty()) {
      const Tensor ptx_loss = PretrainNll(*net_, config.pretrain->Tokens("prompts"));
      loss = Add(loss, Scale(ptx_loss, config.ptx_coef));
    }
    // Weight by the shard's share so accumulated gradients equal the
    // full-minibatch mean — the DP gradient all-reduce.
    const float share =
        static_cast<float>(shard.batch_size()) / static_cast<float>(total_rows);
    Tensor weighted = Scale(loss, share);
    weighted.Backward();
    out.SetFloat("actor_loss", {{loss.item()}});
    // Fraction of tokens whose importance ratio fell outside the PPO clip
    // range — the standard health signal for policy-update step size.
    int64_t clipped = 0;
    for (int64_t i = 0; i < n; ++i) {
      const double ratio = std::exp(static_cast<double>(log_probs.at(i)) -
                                    static_cast<double>(old_log_probs.at(i)));
      if (ratio < 1.0 - config.loss.clip_eps || ratio > 1.0 + config.loss.clip_eps) {
        clipped += 1;
      }
    }
    out.SetFloat("clip_fraction",
                 {{n > 0 ? static_cast<float>(static_cast<double>(clipped) /
                                              static_cast<double>(n))
                         : 0.0f}});
    return out;
  };

  BatchFuture result = Dispatch("update_actor", "train", TransferProtocol::k3dProto, batch,
                                duration, compute, 0.0);
  if (real_.enabled && !batch.data.empty()) {
    last_grad_norm_ = adam_->GradNorm();
    adam_->Step();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Critic
// ---------------------------------------------------------------------------

CriticWorkerGroup::CriticWorkerGroup(WorkerGroupOptions options,
                                     std::shared_ptr<ResourcePool> pool, Controller* controller,
                                     RealComputeOptions real, const std::string& value_column)
    : ModelWorkerGroup(std::move(options), std::move(pool), controller, std::move(real)),
      value_column_(value_column),
      returns_column_(value_column == "values" ? "returns" : "cost_returns") {
  if (real_.enabled) {
    Rng init_rng(real_.seed ^ 0xC817EC00ULL);
    PolicyNetConfig net_config = real_.net;
    net_config.scalar_head = true;
    net_ = std::make_unique<PolicyNet>(net_config, init_rng);
    adam_ = std::make_unique<Adam>(net_->Parameters(), real_.adam);
  }
}

std::vector<std::vector<float>> CriticWorkerGroup::ValuesForShard(const DataBatch& shard,
                                                                  bool with_grad,
                                                                  Tensor* flat_values) const {
  std::vector<int64_t> lengths;
  std::vector<std::vector<int64_t>> contexts = AllResponseContextsRagged(
      shard.Tokens("prompts"), shard.Tokens("responses"), real_.net.context_window, &lengths);
  Tensor values = net_->Forward(contexts);
  if (with_grad && flat_values != nullptr) {
    *flat_values = values;
  }
  return UnflattenRagged(values.data(), lengths);
}

BatchFuture CriticWorkerGroup::ComputeValues(const BatchFuture& batch,
                                             const RlhfWorkloadSpec& workload) {
  const double duration = InferSeconds(workload.global_batch, workload.total_len());
  ComputeFn compute = [this](const DataBatch& shard, int) {
    DataBatch out = shard;
    out.SetFloat(value_column_, ValuesForShard(shard, /*with_grad=*/false, nullptr));
    return out;
  };
  return Dispatch("compute_values", "infer", TransferProtocol::k3dProto, batch, duration,
                  compute, workload.NominalTransferBytes());
}

BatchFuture CriticWorkerGroup::UpdateCritic(const BatchFuture& batch,
                                            const RlhfWorkloadSpec& workload,
                                            const ValueLossConfig& config) {
  const int64_t sequences = workload.minibatch();
  const double duration = TrainStepSeconds(sequences, workload.total_len());

  const int64_t total_rows = std::max<int64_t>(batch.data.batch_size(), 1);
  ComputeFn compute = [this, &config, total_rows](const DataBatch& shard, int) {
    DataBatch out;
    if (shard.empty()) {
      return out;
    }
    Tensor values;
    ValuesForShard(shard, /*with_grad=*/true, &values);
    const int64_t n = values.size();
    Tensor old_values = Tensor::FromData({n}, FlattenColumn(shard.Float(value_column_)));
    Tensor returns = Tensor::FromData({n}, FlattenColumn(shard.Float(returns_column_)));
    Tensor flat = Reshape(values, {n});
    Tensor loss = ValueLoss(flat, old_values, returns, config);
    const float share =
        static_cast<float>(shard.batch_size()) / static_cast<float>(total_rows);
    Tensor weighted = Scale(loss, share);
    weighted.Backward();
    out.SetFloat("critic_loss", {{loss.item()}});
    return out;
  };

  BatchFuture result = Dispatch("update_critic", "train", TransferProtocol::k3dProto, batch,
                                duration, compute, 0.0);
  if (real_.enabled && !batch.data.empty()) {
    adam_->Step();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reference policy
// ---------------------------------------------------------------------------

ReferenceWorkerGroup::ReferenceWorkerGroup(WorkerGroupOptions options,
                                           std::shared_ptr<ResourcePool> pool,
                                           Controller* controller, RealComputeOptions real,
                                           const PolicyNet* init_from)
    : ModelWorkerGroup(std::move(options), std::move(pool), controller, std::move(real)) {
  if (real_.enabled) {
    HF_CHECK(init_from != nullptr);
    Rng init_rng(real_.seed ^ 0x4EF4EF00ULL);
    net_ = std::make_unique<PolicyNet>(init_from->config(), init_rng);
    net_->CopyFrom(*init_from);
  }
}

BatchFuture ReferenceWorkerGroup::ComputeRefLogProb(const BatchFuture& batch,
                                                    const RlhfWorkloadSpec& workload) {
  const double duration = InferSeconds(workload.global_batch, workload.total_len());
  ComputeFn compute = [this](const DataBatch& shard, int) {
    DataBatch out = shard;
    std::vector<int64_t> lengths;
    std::vector<std::vector<int64_t>> contexts = AllResponseContextsRagged(
        shard.Tokens("prompts"), shard.Tokens("responses"), real_.net.context_window,
        &lengths);
    std::vector<int64_t> chosen;
    for (const std::vector<int64_t>& response : shard.Tokens("responses")) {
      chosen.insert(chosen.end(), response.begin(), response.end());
    }
    Tensor log_probs = net_->LogProb(contexts, chosen);
    out.SetFloat("ref_log_probs", UnflattenRagged(log_probs.data(), lengths));
    return out;
  };
  return Dispatch("compute_ref_log_prob", "infer", TransferProtocol::k3dProto, batch, duration,
                  compute, workload.NominalTransferBytes());
}

// ---------------------------------------------------------------------------
// Reward / cost model
// ---------------------------------------------------------------------------

RewardWorkerGroup::RewardWorkerGroup(WorkerGroupOptions options,
                                     std::shared_ptr<ResourcePool> pool, Controller* controller,
                                     RealComputeOptions real, RewardSource source,
                                     std::string output_column)
    : ModelWorkerGroup(std::move(options), std::move(pool), controller, std::move(real)),
      source_(source),
      output_column_(std::move(output_column)) {
  if (real_.enabled && source_ == RewardSource::kLearnedNet) {
    Rng init_rng(real_.seed ^ 0x4E84ADULL);
    PolicyNetConfig net_config = real_.net;
    net_config.scalar_head = true;
    net_ = std::make_unique<PolicyNet>(net_config, init_rng);
  }
}

PolicyNet& RewardWorkerGroup::net() {
  HF_CHECK_MSG(net_ != nullptr, "reward net only exists for RewardSource::kLearnedNet");
  return *net_;
}

BatchFuture RewardWorkerGroup::ComputeReward(const BatchFuture& batch,
                                             const RlhfWorkloadSpec& workload) {
  const double duration = InferSeconds(workload.global_batch, workload.total_len());
  ComputeFn compute = [this](const DataBatch& shard, int) {
    DataBatch out = shard;
    const DataBatch::TokenColumn& prompts = shard.Tokens("prompts");
    const DataBatch::TokenColumn& responses = shard.Tokens("responses");
    DataBatch::FloatColumn scores(prompts.size());
    switch (source_) {
      case RewardSource::kRuleReward: {
        for (size_t i = 0; i < prompts.size(); ++i) {
          scores[i] = {real_.task.SampleReward(prompts[i], responses[i])};
        }
        break;
      }
      case RewardSource::kRuleCost: {
        for (size_t i = 0; i < prompts.size(); ++i) {
          scores[i] = {real_.task.SampleCost(responses[i])};
        }
        break;
      }
      case RewardSource::kLearnedNet: {
        // Sample-level score = mean of the scalar head over every response
        // position (token-level rewards averaged, Table 4's "rewards could
        // be token-level or sample-level").
        std::vector<int64_t> lengths;
        std::vector<std::vector<int64_t>> contexts = AllResponseContextsRagged(
            prompts, responses, real_.net.context_window, &lengths);
        Tensor values = net_->Forward(contexts);
        size_t offset = 0;
        for (size_t i = 0; i < prompts.size(); ++i) {
          double total = 0.0;
          const size_t length = static_cast<size_t>(lengths[i]);
          for (size_t k = 0; k < length; ++k) {
            total += values.at(static_cast<int64_t>(offset + k));
          }
          offset += length;
          scores[i] = {length > 0 ? static_cast<float>(total / static_cast<double>(length))
                                  : 0.0f};
        }
        break;
      }
    }
    out.SetFloat(output_column_, std::move(scores));
    return out;
  };
  return Dispatch("compute_" + output_column_, "infer", TransferProtocol::k3dProto, batch,
                  duration, compute, workload.NominalTransferBytes());
}

}  // namespace hybridflow
