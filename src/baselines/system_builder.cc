#include "src/baselines/system_builder.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/tensor/parallel.h"

namespace hybridflow {

const char* RlhfSystemName(RlhfSystem system) {
  switch (system) {
    case RlhfSystem::kHybridFlow:
      return "HybridFlow";
    case RlhfSystem::kDeepSpeedChat:
      return "DeepSpeed-Chat";
    case RlhfSystem::kOpenRlhf:
      return "OpenRLHF";
    case RlhfSystem::kNemoAligner:
      return "NeMo-Aligner";
  }
  return "?";
}

std::vector<MappedModelDesc> DataflowModels(RlhfAlgorithm algorithm,
                                            const ModelSpec& actor_model,
                                            const ModelSpec& critic_model) {
  const RlhfDataflow& dataflow = DataflowOf(algorithm);
  std::vector<MappedModelDesc> models;
  for (RlhfRole role : dataflow.roles) {
    const bool scalar_head = RoleScalarHead(role);
    models.push_back({RlhfRoleName(role), scalar_head ? critic_model : actor_model,
                      RoleTrainable(role), scalar_head,
                      role == RlhfRole::kActor ? dataflow.generation_passes : 0, role});
  }
  return models;
}

int MinTpForBytes(double bytes, double budget, int cap) {
  for (int tp = 1; tp <= cap; tp *= 2) {
    if (bytes / tp <= budget) {
      return tp;
    }
  }
  return 0;
}

namespace {

RealComputeOptions MakeReal(const SystemBuildConfig& config) {
  RealComputeOptions real;
  real.enabled = config.real_compute;
  real.seed = config.seed;
  real.task = AlignmentTask{};
  real.net.arch = config.real_arch;
  real.net.vocab_size = real.task.vocab_size;
  real.net.context_window = 4;
  real.net.embed_dim = 16;
  real.net.hidden_dim = 32;
  real.net.num_layers = 2;
  real.adam.lr = 3e-3f;
  return real;
}

// Heuristic 3D strategy: the smallest model-parallel degree that fits in
// memory (TP first up to a node, then PP), data parallelism for the rest.
ParallelConfig Heuristic3d(const MappedModelDesc& model, int gpus, int gpus_per_node,
                           double memory_budget) {
  const double state = model.StateBytes();
  for (int tp = 1; tp <= std::min(gpus, gpus_per_node); tp *= 2) {
    for (int pp = 1; tp * pp <= gpus; pp *= 2) {
      if (gpus % (tp * pp) != 0) {
        continue;
      }
      if (state / (tp * pp) <= memory_budget) {
        return ParallelConfig{pp, tp, gpus / (tp * pp)};
      }
    }
  }
  return ParallelConfig{0, 0, 0};  // Does not fit.
}

struct BuildContext {
  const SystemBuildConfig& config;
  RlhfSystemInstance& instance;
  std::vector<MappedModelDesc> models;
  RealComputeOptions real;

  // DataflowModels lists the actor first.
  const MappedModelDesc& Actor() const { return models.front(); }
};

WorkerGroupOptions MakeOptions(const MappedModelDesc& model, const ParallelConfig& cfg,
                               WorkerBackend backend, const PerfParams& perf) {
  WorkerGroupOptions options;
  options.name = model.name;
  options.model = model.spec;
  options.scalar_head = model.scalar_head;
  options.trainable = model.trainable;
  options.backend = backend;
  options.train_cfg = cfg;
  options.perf = perf;
  return options;
}

// Builds `model`'s worker group, chosen by its role; `actor_options` is
// read for the actor only. Build the actor first: the reference copies its
// weights.
void MakeWorkerGroup(BuildContext& ctx, const MappedModelDesc& model,
                     std::shared_ptr<ResourcePool> pool, const ParallelConfig& cfg,
                     WorkerBackend backend, const ActorOptions& actor_options = ActorOptions()) {
  RlhfSystemInstance& instance = ctx.instance;
  WorkerGroupOptions options = MakeOptions(model, cfg, backend, ctx.config.perf);
  switch (model.role) {
    case RlhfRole::kActor: {
      ActorOptions actor = actor_options;
      actor.rollout = ctx.config.rollout;
      instance.actor = std::make_unique<ActorWorkerGroup>(
          std::move(options), std::move(pool), instance.controller.get(), ctx.real, actor);
      return;
    }
    case RlhfRole::kCritic:
      instance.critic = std::make_unique<CriticWorkerGroup>(
          std::move(options), std::move(pool), instance.controller.get(), ctx.real);
      return;
    case RlhfRole::kReference:
      instance.reference = std::make_unique<ReferenceWorkerGroup>(
          std::move(options), std::move(pool), instance.controller.get(), ctx.real,
          ctx.real.enabled ? &instance.actor->net() : nullptr);
      return;
    case RlhfRole::kReward:
      instance.reward = std::make_unique<RewardWorkerGroup>(
          std::move(options), std::move(pool), instance.controller.get(), ctx.real,
          RewardSource::kRuleReward, "rewards");
      return;
    case RlhfRole::kCost:
      instance.cost = std::make_unique<RewardWorkerGroup>(
          std::move(options), std::move(pool), instance.controller.get(), ctx.real,
          RewardSource::kRuleCost, "costs");
      return;
  }
}

bool BuildHybridFlow(BuildContext& ctx) {
  const SystemBuildConfig& config = ctx.config;
  RlhfSystemInstance& instance = ctx.instance;

  MapperOptions mapper_options;
  mapper_options.perf = config.perf;
  DeviceMapper mapper(ctx.models, config.workload,
                      ClusterSpec::WithGpus(config.num_gpus, config.gpus_per_node),
                      mapper_options);
  instance.mapping = mapper.Map(config.num_gpus, config.placement);
  if (!instance.mapping.feasible) {
    return false;
  }

  // One pool per colocated set; groups in a set share the pool handle.
  std::vector<std::shared_ptr<ResourcePool>> set_pools;
  for (size_t s = 0; s < instance.mapping.sets.size(); ++s) {
    const ColocatedSetResult& set = instance.mapping.sets[s];
    set_pools.push_back(instance.controller->CreatePoolRange(
        "set" + std::to_string(s), set.first_device, set.gpus));
  }

  // Algorithm 2 may have selected the ZeRO backend for the actor, in which
  // case the engine reshards ZeRO->TP (DS-Chat-style); the 3D backend uses
  // the zero-redundancy engine.
  const ModelMapping& actor_mapping = instance.mapping.models.at(ctx.Actor().name);
  ActorOptions actor_options;
  actor_options.gen = actor_mapping.gen;
  actor_options.engine_mode = actor_mapping.backend == WorkerBackend::k3dParallel
                                  ? ActorEngineMode::kHybridFlow
                                  : ActorEngineMode::kDsChat;
  for (const MappedModelDesc& model : ctx.models) {
    const int set = instance.mapping.SetOf(model.name);
    const ModelMapping& mapping = instance.mapping.models.at(model.name);
    MakeWorkerGroup(ctx, model, set_pools[static_cast<size_t>(set)], mapping.train,
                    mapping.backend, actor_options);
  }
  return true;
}

bool BuildDeepSpeedChat(BuildContext& ctx) {
  const SystemBuildConfig& config = ctx.config;
  RlhfSystemInstance& instance = ctx.instance;
  const double capacity = instance.controller->spec().gpu.memory_bytes;

  // Everything colocated on all GPUs; every model ZeRO-3 across N.
  auto pool = instance.controller->CreatePoolRange("all", 0, config.num_gpus);
  const ParallelConfig dp_cfg{1, 1, config.num_gpus};

  // Memory feasibility: sum of ZeRO-3 states across colocated models.
  double total_state = 0.0;
  for (const MappedModelDesc& model : ctx.models) {
    total_state += model.StateBytes() / config.num_gpus;
  }
  if (total_state > 0.85 * capacity) {
    return false;
  }

  // Generation TP: smallest power of two leaving KVCache headroom.
  const int tg = MinTpForBytes(ctx.Actor().spec.ParamBytes(), 0.25 * capacity,
                               std::min(config.num_gpus, config.gpus_per_node));
  if (tg == 0) {
    return false;
  }

  ActorOptions actor_options;
  actor_options.gen = GenParallelConfig{1, tg};
  actor_options.engine_mode = ActorEngineMode::kDsChat;
  for (const MappedModelDesc& model : ctx.models) {
    MakeWorkerGroup(ctx, model, pool, dp_cfg, WorkerBackend::kZero, actor_options);
  }
  return true;
}

bool BuildOpenRlhf(BuildContext& ctx) {
  const SystemBuildConfig& config = ctx.config;
  RlhfSystemInstance& instance = ctx.instance;
  const double capacity = instance.controller->spec().gpu.memory_bytes;
  const int n = config.num_gpus;

  // Standalone placement: actor training, vLLM generation, and each other
  // model on disjoint device sets, sized proportionally to their memory
  // footprint (largest-remainder rounding, each at least one GPU).
  // Weights: actor training, the vLLM copy + KVCache, then each non-actor
  // model in dataflow order.
  const MappedModelDesc& actor = ctx.Actor();
  std::vector<double> weights = {actor.StateBytes(), 4.0 * actor.spec.NumParams()};
  for (const MappedModelDesc& model : ctx.models) {
    if (!model.is_actor()) {
      weights.push_back(model.StateBytes());
    }
  }
  double weight_sum = 0.0;
  for (double weight : weights) {
    weight_sum += weight;
  }
  // Every pool needs at least one GPU.
  int assigned = static_cast<int>(weights.size());
  if (assigned > n) {
    return false;
  }
  std::vector<int> shares(weights.size(), 1);
  // Greedily hand out remaining GPUs to the most under-allocated pool.
  while (assigned < n) {
    size_t argmax = 0;
    double worst = -1.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      const double deficit = weights[i] / weight_sum - static_cast<double>(shares[i]) / n;
      if (deficit > worst) {
        worst = deficit;
        argmax = i;
      }
    }
    shares[argmax] += 1;
    assigned += 1;
  }
  int actor_gpus = shares[0];
  int gen_gpus = shares[1];

  // The vLLM pool must tile into TP-sized replicas: shrink it to the
  // nearest multiple of the needed TP degree, returning the remainder to
  // actor training.
  int gen_tp = MinTpForBytes(actor.spec.ParamBytes(), 0.5 * capacity,
                             std::min(gen_gpus, config.gpus_per_node));
  if (gen_tp == 0) {
    return false;
  }
  actor_gpus += gen_gpus % gen_tp;
  gen_gpus -= gen_gpus % gen_tp;
  if (gen_gpus < gen_tp) {
    return false;
  }

  int cursor = 0;
  auto actor_pool = instance.controller->CreatePoolRange("actor_train", cursor, actor_gpus);
  cursor += actor_gpus;
  auto gen_pool = instance.controller->CreatePoolRange("actor_gen", cursor, gen_gpus);
  cursor += gen_gpus;

  // Actor trains with ZeRO-3 across its pool.
  if (actor.StateBytes() / actor_gpus > 0.85 * capacity) {
    return false;
  }
  const int tg = gen_tp;
  HF_CHECK_EQ(gen_gpus % tg, 0);

  ActorOptions actor_options;
  actor_options.gen = GenParallelConfig{1, tg};
  actor_options.engine_mode = ActorEngineMode::kTwoCopies;
  actor_options.gen_pool = gen_pool;
  MakeWorkerGroup(ctx, actor, actor_pool, ParallelConfig{1, 1, actor_gpus}, WorkerBackend::kZero,
                  actor_options);

  size_t share = 2;
  for (const MappedModelDesc& model : ctx.models) {
    if (model.is_actor()) {
      continue;
    }
    const int gpus = shares[share++];
    if (model.StateBytes() / gpus > 0.85 * capacity) {
      return false;
    }
    auto pool = instance.controller->CreatePoolRange(model.name + "_pool", cursor, gpus);
    cursor += gpus;
    MakeWorkerGroup(ctx, model, pool, ParallelConfig{1, 1, gpus}, WorkerBackend::kZero);
  }
  return true;
}

bool BuildNemoAligner(BuildContext& ctx) {
  const SystemBuildConfig& config = ctx.config;
  RlhfSystemInstance& instance = ctx.instance;
  const double capacity = instance.controller->spec().gpu.memory_bytes;
  const int n = config.num_gpus;
  if (n < 2) {
    return false;
  }
  const int half = n / 2;

  auto actor_pool = instance.controller->CreatePoolRange("actor_ref", 0, half);
  auto critic_pool = instance.controller->CreatePoolRange("critic_rm", half, n - half);

  // Identical parallelism in training and generation; no KVCache (§8.2).
  ActorOptions actor_options;
  actor_options.engine_mode = ActorEngineMode::kShared;
  actor_options.use_kv_cache = false;
  for (const MappedModelDesc& model : ctx.models) {
    const bool with_actor = model.role == RlhfRole::kActor || model.role == RlhfRole::kReference;
    auto pool = with_actor ? actor_pool : critic_pool;
    const double budget = (model.trainable ? 0.55 : 0.25) * capacity;
    const ParallelConfig cfg = Heuristic3d(model, pool->size(), config.gpus_per_node, budget);
    if (!cfg.Valid() || cfg.pp == 0) {
      return false;
    }
    MakeWorkerGroup(ctx, model, pool, cfg, WorkerBackend::k3dParallel, actor_options);
  }
  return true;
}

}  // namespace

IterationMetrics RlhfSystemInstance::RunAveraged(int warmup, int measured) {
  HF_CHECK(program != nullptr);
  HF_CHECK_GT(measured, 0);
  for (int i = 0; i < warmup; ++i) {
    program->RunIteration();
  }
  IterationMetrics total;
  for (int i = 0; i < measured; ++i) {
    IterationMetrics metrics = program->RunIteration();
    total.iteration_seconds += metrics.iteration_seconds;
    total.throughput_tokens_per_sec += metrics.throughput_tokens_per_sec;
    total.mean_reward += metrics.mean_reward;
    total.toxicity_rate += metrics.toxicity_rate;
    total.coherence_rate += metrics.coherence_rate;
    total.actor_loss += metrics.actor_loss;
    total.critic_loss += metrics.critic_loss;
    total.mean_kl += metrics.mean_kl;
    total.kl_coef += metrics.kl_coef;
    total.grad_norm += metrics.grad_norm;
    total.clip_fraction += metrics.clip_fraction;
    total.wall_clock_seconds += metrics.wall_clock_seconds;
    total.transition_seconds += metrics.transition_seconds;
    total.generation_seconds += metrics.generation_seconds;
    total.overlap_fraction += metrics.overlap_fraction;
    total.async_staleness = metrics.async_staleness;
    total.async_queue_depth = metrics.async_queue_depth;
    for (const auto& [category, seconds] : metrics.busy_by_category) {
      total.busy_by_category[category] += seconds;
    }
  }
  const double inv = 1.0 / measured;
  total.iteration_seconds *= inv;
  total.throughput_tokens_per_sec *= inv;
  total.mean_reward *= inv;
  total.toxicity_rate *= inv;
  total.coherence_rate *= inv;
  total.actor_loss *= inv;
  total.critic_loss *= inv;
  total.mean_kl *= inv;
  total.kl_coef *= inv;
  total.grad_norm *= inv;
  total.clip_fraction *= inv;
  total.wall_clock_seconds *= inv;
  total.transition_seconds *= inv;
  total.generation_seconds *= inv;
  total.overlap_fraction *= inv;
  for (auto& [category, seconds] : total.busy_by_category) {
    seconds *= inv;
  }
  return total;
}

std::string ValidateSystemConfig(const SystemBuildConfig& config) {
  if (config.async_pipeline && config.rollout.mode == RolloutMode::kStatic) {
    return "async_pipeline=true requires the continuous rollout timing model: the static "
           "wave model prices generation in closed form, with no per-step schedule to "
           "overlap with training (set rollout.mode=continuous)";
  }
  if (config.async_staleness < 0) {
    return "async_staleness must be >= 0";
  }
  if (config.tensor_threads < 0) {
    return "tensor.threads must be >= 0 (0 = auto)";
  }
  return "";
}

RlhfSystemInstance BuildSystem(const SystemBuildConfig& config) {
  const std::string config_error = ValidateSystemConfig(config);
  HF_CHECK_MSG(config_error.empty(), config_error);
  SetTensorThreads(config.tensor_threads);
  RlhfSystemInstance instance;
  instance.controller = std::make_unique<Controller>(
      ClusterSpec::WithGpus(config.num_gpus, config.gpus_per_node));

  BuildContext ctx{config, instance,
                   DataflowModels(config.algorithm, config.actor_model, config.critic_model),
                   MakeReal(config)};

  bool ok = false;
  switch (config.system) {
    case RlhfSystem::kHybridFlow:
      ok = BuildHybridFlow(ctx);
      break;
    case RlhfSystem::kDeepSpeedChat:
      ok = BuildDeepSpeedChat(ctx);
      break;
    case RlhfSystem::kOpenRlhf:
      ok = BuildOpenRlhf(ctx);
      break;
    case RlhfSystem::kNemoAligner:
      ok = BuildNemoAligner(ctx);
      break;
  }
  if (!ok) {
    instance.feasible = false;
    HF_LOG(kInfo) << RlhfSystemName(config.system) << " infeasible on " << config.num_gpus
                  << " GPUs for " << config.actor_model.name << " models";
    return instance;
  }

  if (config.real_compute) {
    instance.dataset = std::make_unique<PromptDataset>(ctx.real.task, config.seed ^ 0xDA7A);
  }

  RlhfProgramConfig program_config;
  program_config.algorithm = config.algorithm;
  program_config.workload = config.workload;
  program_config.real_batch = config.real_batch;
  program_config.async_pipeline = config.async_pipeline;
  program_config.async_staleness = config.async_staleness;
  RlhfModels models;
  models.actor = instance.actor.get();
  models.critic = instance.critic.get();
  models.reference = instance.reference.get();
  models.reward = instance.reward.get();
  models.cost = instance.cost.get();
  instance.program = std::make_unique<RlhfProgram>(program_config, models,
                                                   instance.controller.get(),
                                                   instance.dataset.get());
  return instance;
}

}  // namespace hybridflow
