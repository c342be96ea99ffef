#include "src/mapping/device_mapper.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/units.h"

namespace hybridflow {

namespace {

std::vector<DeviceId> Iota(int n) {
  std::vector<DeviceId> devices(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    devices[static_cast<size_t>(i)] = i;
  }
  return devices;
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

const char* PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kAuto:
      return "hybridflow";
    case PlacementKind::kColocate:
      return "colocate";
    case PlacementKind::kStandalone:
      return "standalone";
    case PlacementKind::kSplit:
      return "split";
  }
  return "?";
}

int MappingResult::SetOf(const std::string& name) const {
  for (size_t s = 0; s < sets.size(); ++s) {
    for (const std::string& member : sets[s].model_names) {
      if (member == name) {
        return static_cast<int>(s);
      }
    }
  }
  HF_CHECK_MSG(false, "model " << name << " not present in any colocated set");
  return -1;
}

DeviceMapper::DeviceMapper(std::vector<MappedModelDesc> models, RlhfWorkloadSpec workload,
                           ClusterSpec node_template, MapperOptions options)
    : models_(std::move(models)),
      workload_(workload),
      node_template_(node_template),
      options_(options) {
  HF_CHECK(!models_.empty());
}

double DeviceMapper::StateBytesPerGpu(const MappedModelDesc& model, WorkerBackend backend,
                                      const ParallelConfig& cfg) {
  if (backend != WorkerBackend::k3dParallel) {
    ZeroConfig zero{ZeroStage::kStage3, cfg.dp};
    return model.trainable ? ZeroTrainStateBytesPerGpu(model.Params(), zero)
                           : ZeroParamBytesPerGpu(model.Params(), zero);
  }
  return model.StateBytes() / static_cast<double>(cfg.model_parallel_size());
}

bool DeviceMapper::SetFits(const std::vector<int>& model_indices, int gpus) const {
  const double budget = node_template_.gpu.memory_bytes * options_.memory_fraction;
  double total = 0.0;
  for (int index : model_indices) {
    const MappedModelDesc& model = models_[static_cast<size_t>(index)];
    // Best-case sharding: TP up to a node, PP up to the layer count.
    const double max_shards = std::min<double>(
        gpus, static_cast<double>(node_template_.gpus_per_node) *
                  static_cast<double>(model.spec.num_layers));
    total += model.StateBytes() / std::min<double>(max_shards, gpus);
  }
  return total <= budget;
}

int DeviceMapper::MinAlloc(const std::vector<int>& model_indices, int num_gpus) const {
  for (int size : CandidateSizes(num_gpus)) {
    if (SetFits(model_indices, size)) {
      return size;
    }
  }
  return num_gpus + 1;  // Infeasible even with every GPU.
}

std::vector<int> DeviceMapper::CandidateSizes(int num_gpus) const {
  std::vector<int> sizes;
  if (num_gpus <= node_template_.gpus_per_node) {
    for (int s = 1; s <= num_gpus; s *= 2) {
      sizes.push_back(s);
    }
    if (sizes.back() != num_gpus) {
      sizes.push_back(num_gpus);
    }
    return sizes;
  }
  // Multi-node: sub-node slices of 2/4, then whole-node multiples.
  sizes = {2, 4};
  const int per_node = node_template_.gpus_per_node;
  for (int s = per_node; s <= num_gpus; s += per_node) {
    // Keep the list small: powers-of-two node counts plus halves.
    const int nodes = s / per_node;
    const bool keep = (nodes & (nodes - 1)) == 0 || nodes % 3 == 0 || s == num_gpus;
    if (keep) {
      sizes.push_back(s);
    }
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

double DeviceMapper::GenerationCost(const PerfModel& perf, const MappedModelDesc& model,
                                    const ClusterSpec& cluster,
                                    const std::vector<DeviceId>& devices,
                                    const ParallelConfig& train, const GenParallelConfig& gen,
                                    ActorEngineMode mode, double kv_budget) {
  const EngineKey key{model.name, static_cast<int>(devices.size()), mode,
                      train.pp, train.tp, train.dp, gen.pp, gen.tp};
  auto it = engine_cache_.find(key);
  if (it == engine_cache_.end()) {
    const HybridEngine engine(model.spec, train, gen, mode, cluster, devices);
    EnginePricing pricing;
    pricing.replicas = engine.NumGenReplicas();
    pricing.replica_devices = engine.GenReplicaDevices(0);
    pricing.transition_seconds = engine.TrainToGenTransition().seconds;
    it = engine_cache_.emplace(key, std::move(pricing)).first;
  }
  const EnginePricing& engine = it->second;
  const int64_t per_replica = CeilDiv(workload_.global_batch, engine.replicas);
  simulations_ += 1;
  const GenTimeBreakdown breakdown =
      perf.GenerateTime(gen, engine.replica_devices, per_replica, workload_.prompt_len,
                        workload_.response_len, kv_budget, /*use_kv_cache=*/true);
  double total = breakdown.total() + engine.transition_seconds;
  for (int pass = 1; pass < model.generation_passes; ++pass) {
    total += breakdown.total();
  }
  return total;
}

ModelMapping DeviceMapper::AutoParallel(const MappedModelDesc& model, int gpus,
                                        double reserved_bytes) {
  // Bucket reserved memory at 1 GiB so near-identical contexts share cache
  // entries.
  const int reserved_bucket = static_cast<int>(reserved_bytes / kGiB);
  const auto key = std::make_tuple(model.name, gpus, reserved_bucket);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    cache_hits_ += 1;
    return it->second;
  }

  const ClusterSpec cluster = ClusterSpec::WithGpus(gpus, node_template_.gpus_per_node);
  const std::vector<DeviceId> devices = Iota(gpus);
  PerfModel perf(model.spec, cluster, model.scalar_head, options_.perf);
  const double memory_budget =
      cluster.gpu.memory_bytes * options_.memory_fraction - reserved_bytes;

  // Prices one training strategy stage by stage (the actor with its
  // cheapest generation strategy) and keeps it when it beats `best`.
  // `state` is the strategy's per-GPU model state.
  ModelMapping best;
  double best_cost = std::numeric_limits<double>::infinity();
  const auto consider = [&](WorkerBackend backend, const ParallelConfig& cfg, double state) {
    const bool zero = backend == WorkerBackend::kZero;
    const ZeroConfig zero_cfg{ZeroStage::kStage3, cfg.dp};
    ModelMapping candidate;
    candidate.feasible = true;
    candidate.train = cfg;
    candidate.backend = backend;

    // Training stage: the per-iteration update schedule.
    if (model.trainable) {
      const int64_t minibatch = workload_.minibatch();
      const int microbatches = static_cast<int>(std::min<int64_t>(
          std::max<int64_t>(CeilDiv(minibatch, cfg.dp), 1), 4 * cfg.pp));
      simulations_ += 1;
      const double step =
          zero ? perf.ZeroTrainStepTime(zero_cfg, devices, minibatch, workload_.total_len())
               : perf.TrainStepTime(cfg, devices, minibatch, workload_.total_len(),
                                    microbatches);
      candidate.stage_seconds[static_cast<int>(RlhfStage::kTraining)] =
          step * workload_.ppo_epochs * workload_.updates_per_iteration;
    }

    if (!model.is_actor()) {
      // Preparation stage: one forward pass.
      simulations_ += 1;
      candidate.stage_seconds[static_cast<int>(RlhfStage::kPreparation)] =
          zero ? perf.ZeroInferTime(zero_cfg, devices, workload_.global_batch,
                                    workload_.total_len())
               : perf.InferTime(cfg, devices, workload_.global_batch, workload_.total_len());
    } else {
      // Generation stage: sweep generation strategies that leave KVCache
      // room. The 3D backend reshards to a (pg, tg) dividing its (pp, tp)
      // with the zero-redundancy engine, which reuses the training shard;
      // ZeRO regroups into TP replicas (DS-Chat-style engine) and holds a
      // whole generation shard besides its own state.
      const int max_tg = zero ? std::min(gpus, cluster.gpus_per_node) : cfg.tp;
      const int tg_base = zero ? gpus : cfg.tp;
      double best_gen = std::numeric_limits<double>::infinity();
      GenParallelConfig best_gen_cfg;
      for (int tg = 1; tg <= max_tg; tg *= 2) {
        if (tg_base % tg != 0) {
          continue;
        }
        for (int pg = 1; pg <= cfg.pp; pg *= 2) {
          if (cfg.pp % pg != 0) {
            continue;
          }
          const GenParallelConfig gen{pg, tg};
          const double gen_params = perf.GenParamBytesPerGpu(gen);
          const double extra =
              zero ? gen_params
                   : std::max(0.0, gen_params - 2.0 * perf.num_params() /
                                                    static_cast<double>(cfg.model_parallel_size()));
          // Colocated models are already out of memory_budget.
          const double kv_budget = memory_budget - state - extra;
          if (kv_budget <= 0.0) {
            continue;
          }
          const double total = GenerationCost(
              perf, model, cluster, devices, cfg, gen,
              zero ? ActorEngineMode::kDsChat : ActorEngineMode::kHybridFlow, kv_budget);
          if (total < best_gen) {
            best_gen = total;
            best_gen_cfg = gen;
          }
        }
      }
      if (!std::isfinite(best_gen)) {
        return;  // No generation strategy fits.
      }
      candidate.gen = best_gen_cfg;
      candidate.stage_seconds[static_cast<int>(RlhfStage::kGeneration)] = best_gen;
    }

    double cost = 0.0;
    for (double stage : candidate.stage_seconds) {
      cost += stage;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  };

  const int max_tp = std::min(gpus, cluster.gpus_per_node);
  for (int tp = 1; tp <= max_tp; tp *= 2) {
    for (int pp = 1; tp * pp <= gpus && pp <= model.spec.num_layers; ++pp) {
      if (gpus % (tp * pp) != 0) {
        continue;
      }
      const ParallelConfig cfg{pp, tp, gpus / (tp * pp)};
      const double state = StateBytesPerGpu(model, WorkerBackend::k3dParallel, cfg);
      if (state <= memory_budget) {
        consider(WorkerBackend::k3dParallel, cfg, state);
      }
    }
  }
  // ZeRO-3 data-parallel candidate (Table 1: HybridFlow also supports
  // ZeRO/FSDP training backends): often the best choice on small,
  // single-node allocations where full DP keeps kernels saturated.
  const ParallelConfig zero_cfg{1, 1, gpus};
  const double zero_state = StateBytesPerGpu(model, WorkerBackend::kZero, zero_cfg);
  if (zero_state <= memory_budget) {
    consider(WorkerBackend::kZero, zero_cfg, zero_state);
  }

  // An infeasible (model, gpus) pair is cached too, so repeated placements
  // skip it cheaply.
  cache_.emplace(key, best);
  return best;
}

std::vector<std::vector<std::vector<int>>> DeviceMapper::AllPartitions(
    PlacementKind kind) const {
  const int k = static_cast<int>(models_.size());
  std::vector<std::vector<std::vector<int>>> partitions;
  if (kind == PlacementKind::kColocate) {
    std::vector<int> all(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      all[static_cast<size_t>(i)] = i;
    }
    partitions.push_back({all});
    return partitions;
  }
  if (kind == PlacementKind::kStandalone) {
    std::vector<std::vector<int>> sets;
    for (int i = 0; i < k; ++i) {
      sets.push_back({i});
    }
    partitions.push_back(sets);
    return partitions;
  }
  if (kind == PlacementKind::kSplit) {
    // {actor, reference} on one set, everything else on the other.
    std::vector<int> first;
    std::vector<int> second;
    for (int i = 0; i < k; ++i) {
      const MappedModelDesc& model = models_[static_cast<size_t>(i)];
      if (model.role == RlhfRole::kActor || model.role == RlhfRole::kReference) {
        first.push_back(i);
      } else {
        second.push_back(i);
      }
    }
    HF_CHECK(!first.empty());
    HF_CHECK(!second.empty());
    partitions.push_back({first, second});
    return partitions;
  }
  // kAuto: all set partitions via restricted growth strings.
  std::vector<int> assignment(static_cast<size_t>(k), 0);
  std::function<void(int, int)> recurse = [&](int index, int max_label) {
    if (index == k) {
      int num_sets = max_label;
      std::vector<std::vector<int>> sets(static_cast<size_t>(num_sets));
      for (int i = 0; i < k; ++i) {
        sets[static_cast<size_t>(assignment[static_cast<size_t>(i)])].push_back(i);
      }
      partitions.push_back(std::move(sets));
      return;
    }
    for (int label = 0; label <= max_label; ++label) {
      assignment[static_cast<size_t>(index)] = label;
      recurse(index + 1, std::max(max_label, label + 1));
    }
  };
  recurse(0, 0);
  return partitions;
}

void DeviceMapper::EnumerateAllocations(const std::vector<int>& min_alloc, int num_gpus,
                                        const std::vector<int>& sizes,
                                        std::vector<std::vector<int>>* out) const {
  std::vector<int> current(min_alloc.size(), 0);
  std::function<void(size_t, int)> recurse = [&](size_t set, int remaining) {
    if (set == min_alloc.size()) {
      if (remaining == 0) {
        out->push_back(current);
      }
      return;
    }
    // Remaining sets need at least their minimum.
    int tail_min = 0;
    for (size_t s = set + 1; s < min_alloc.size(); ++s) {
      tail_min += min_alloc[s];
    }
    for (int size : sizes) {
      if (size < min_alloc[set] || size + tail_min > remaining) {
        continue;
      }
      current[set] = size;
      recurse(set + 1, remaining - size);
    }
  };
  recurse(0, num_gpus);
}

MappingResult DeviceMapper::Map(int num_gpus, PlacementKind kind) {
  const auto start = std::chrono::steady_clock::now();
  MappingResult best;
  best.est_iteration_seconds = std::numeric_limits<double>::infinity();

  const std::vector<int> sizes = CandidateSizes(num_gpus);
  for (const std::vector<std::vector<int>>& partition : AllPartitions(kind)) {
    best.placements_examined += 1;
    // get_min_alloc per colocated set.
    std::vector<int> min_alloc;
    bool feasible = true;
    for (const std::vector<int>& set : partition) {
      const int min = MinAlloc(set, num_gpus);
      if (min > num_gpus) {
        feasible = false;
        break;
      }
      min_alloc.push_back(min);
    }
    if (!feasible) {
      continue;
    }

    std::vector<std::vector<int>> allocations;
    EnumerateAllocations(min_alloc, num_gpus, sizes, &allocations);
    for (const std::vector<int>& allocation : allocations) {
      // auto_parallel per model; d_cost over stages.
      std::vector<std::vector<ModelMapping>> mapped(partition.size());
      bool allocation_ok = true;
      double set_state_bytes = 0.0;
      for (size_t s = 0; s < partition.size() && allocation_ok; ++s) {
        set_state_bytes = 0.0;
        // Pass 1: non-actor models choose their strategies under a memory
        // budget proportional to their share of the set's total state, so
        // colocated models cannot each claim the whole GPU (Algorithm 2's
        // colocation-aware minimal parallel sizes).
        double set_total_state = 0.0;
        for (int index : partition[s]) {
          set_total_state += models_[static_cast<size_t>(index)].StateBytes();
        }
        const double budget = node_template_.gpu.memory_bytes * options_.memory_fraction;
        int actor_slot = -1;
        for (int index : partition[s]) {
          const MappedModelDesc& model = models_[static_cast<size_t>(index)];
          if (model.is_actor()) {
            actor_slot = static_cast<int>(mapped[s].size());
            mapped[s].push_back(ModelMapping{});
            continue;
          }
          const double share =
              partition[s].size() == 1 ? 1.0 : model.StateBytes() / set_total_state;
          const ModelMapping mapping =
              AutoParallel(model, allocation[s], budget * (1.0 - share));
          if (!mapping.feasible) {
            allocation_ok = false;
            break;
          }
          set_state_bytes += StateBytesPerGpu(model, mapping.backend, mapping.train);
          mapped[s].push_back(mapping);
        }
        // Pass 2: the actor sees the colocated models' memory, which
        // constrains its parallelism and KVCache budget (Algorithm 2).
        if (allocation_ok && actor_slot >= 0) {
          const MappedModelDesc& model = models_[static_cast<size_t>(
              partition[s][static_cast<size_t>(actor_slot)])];
          const ModelMapping mapping =
              AutoParallel(model, allocation[s], set_state_bytes);
          if (!mapping.feasible) {
            allocation_ok = false;
          } else {
            set_state_bytes += StateBytesPerGpu(model, mapping.backend, mapping.train);
            mapped[s][static_cast<size_t>(actor_slot)] = mapping;
          }
        }
        if (set_state_bytes > node_template_.gpu.memory_bytes * options_.memory_fraction) {
          allocation_ok = false;
        }
      }
      if (!allocation_ok) {
        continue;
      }

      // d_cost: stage latency = max over sets of the set's model-sum.
      double stage_total = 0.0;
      for (int stage = 0; stage < kNumStages; ++stage) {
        double stage_max = 0.0;
        for (size_t s = 0; s < partition.size(); ++s) {
          double set_sum = 0.0;
          for (const ModelMapping& mapping : mapped[s]) {
            set_sum += mapping.stage_seconds[stage];
          }
          stage_max = std::max(stage_max, set_sum);
        }
        stage_total += stage_max;
      }

      if (stage_total < best.est_iteration_seconds) {
        best.feasible = true;
        best.est_iteration_seconds = stage_total;
        best.sets.clear();
        best.models.clear();
        int first_device = 0;
        for (size_t s = 0; s < partition.size(); ++s) {
          ColocatedSetResult set_result;
          set_result.model_indices = partition[s];
          set_result.gpus = allocation[s];
          set_result.first_device = first_device;
          first_device += allocation[s];
          best.sets.push_back(set_result);
          for (size_t m = 0; m < partition[s].size(); ++m) {
            const MappedModelDesc& model =
                models_[static_cast<size_t>(partition[s][m])];
            best.sets.back().model_names.push_back(model.name);
            best.models[model.name] = mapped[s][m];
          }
        }
      }
    }
  }

  best.simulations = simulations_;
  best.cache_hits = cache_hits_;
  best.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  HF_LOG(kInfo) << "Map(" << num_gpus << ", " << PlacementKindName(kind) << "): "
                << (best.feasible ? "feasible" : "INFEASIBLE") << ", est "
                << best.est_iteration_seconds << " s/iter, " << best.placements_examined
                << " placements, " << best.simulations << " simulations";
  return best;
}

}  // namespace hybridflow
