// Auto device mapping (§6, Algorithm 1) and auto-parallelism search
// (Appendix C, Algorithm 2).
//
// Given the RLHF dataflow's models, a workload, and a cluster, the mapper:
//   1. enumerates all placements — set partitions of the model list
//     (15 for PPO's four models, from the Bell partition problem);
//   2. computes the minimum GPU allocation of each colocated set from the
//      models' memory footprints (get_min_alloc);
//   3. enumerates feasible device allocations (integer compositions of N
//      over the colocated sets, quantized to hardware-friendly sizes);
//   4. for each model and allocation runs auto_parallel, sweeping (p, t, d)
//      with the analytical simulators and caching per (model, A);
//   5. estimates end-to-end iteration latency with d_cost: per stage, the
//      latency of a colocated set is the SUM over its models (time-
//      sharing), the latency of the stage is the MAX over sets (parallel
//      execution), and the iteration is the sum over stages.
#ifndef SRC_MAPPING_DEVICE_MAPPER_H_
#define SRC_MAPPING_DEVICE_MAPPER_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/hybridengine/hybrid_engine.h"
#include "src/model/model_spec.h"
#include "src/parallel/parallel_config.h"
#include "src/perf/perf_model.h"
#include "src/rlhf/dataflow.h"
#include "src/sim/topology.h"
#include "src/workers/worker_group.h"
#include "src/workers/workload.h"

namespace hybridflow {

// One model (node) of the RLHF dataflow graph.
struct MappedModelDesc {
  std::string name;
  ModelSpec spec;
  bool trainable = false;
  bool scalar_head = false;
  // Generation passes per iteration (ReMax: 2). Nonzero marks the actor,
  // which runs generation and needs a generation strategy.
  int generation_passes = 0;
  RlhfRole role = RlhfRole::kActor;  // Set from the dataflow by DataflowModels.

  bool is_actor() const { return generation_passes > 0; }
  double Params() const { return scalar_head ? spec.NumParamsScalarHead() : spec.NumParams(); }
  // Resident model state: mixed-precision weights, gradients and Adam
  // moments when trainable, 16-bit weights otherwise.
  double StateBytes() const {
    return (trainable ? ModelSpec::kTrainBytesPerParam : 2.0) * Params();
  }
};

// The three dataflow stages of §2.1.
enum class RlhfStage {
  kGeneration = 0,
  kPreparation = 1,
  kTraining = 2,
};
inline constexpr int kNumStages = 3;

struct ModelMapping {
  bool feasible = false;
  ParallelConfig train;
  GenParallelConfig gen;      // Meaningful only for the actor.
  // Training/inference backend (Table 1: HybridFlow supports 3D, ZeRO, and
  // FSDP): Algorithm 2 also evaluates a ZeRO-3 data-parallel candidate,
  // which wins on small intra-node allocations.
  WorkerBackend backend = WorkerBackend::k3dParallel;
  double stage_seconds[kNumStages] = {0.0, 0.0, 0.0};
};

struct ColocatedSetResult {
  std::vector<int> model_indices;
  std::vector<std::string> model_names;
  int gpus = 0;
  int first_device = 0;  // Device range [first_device, first_device + gpus).
};

struct MappingResult {
  bool feasible = false;
  std::vector<ColocatedSetResult> sets;
  std::map<std::string, ModelMapping> models;  // By model name.
  double est_iteration_seconds = 0.0;
  // Search statistics (Fig. 16).
  int64_t simulations = 0;
  int64_t cache_hits = 0;
  int64_t placements_examined = 0;
  double wall_seconds = 0.0;

  // The colocated-set index a model landed in, by name.
  int SetOf(const std::string& name) const;
};

// Named canonical placements for the §8.3 comparison.
enum class PlacementKind {
  kAuto,        // Algorithm 1 output.
  kColocate,    // All models on all GPUs (DeepSpeed-Chat).
  kStandalone,  // Every model on its own devices (OpenRLHF).
  kSplit,       // {actor, ref} / {critic, reward(, cost)} (NeMo-Aligner).
};

const char* PlacementKindName(PlacementKind kind);

struct MapperOptions {
  PerfParams perf;
  // Fraction of device memory usable by model state (rest: activations,
  // KVCache headroom).
  double memory_fraction = 0.85;
};

class DeviceMapper {
 public:
  DeviceMapper(std::vector<MappedModelDesc> models, RlhfWorkloadSpec workload,
               ClusterSpec node_template, MapperOptions options = MapperOptions());

  // Algorithm 1 over `num_gpus` devices. With kind != kAuto, restricts the
  // placement search to that canonical partition (allocation and
  // parallelism are still optimized).
  MappingResult Map(int num_gpus, PlacementKind kind = PlacementKind::kAuto);

  // Algorithm 2: best (p, t, d) for `model` on `gpus` devices, and for the
  // actor additionally the best generation strategy. `reserved_bytes` is
  // the per-GPU memory held by colocated models, which shrinks this
  // model's memory budget and (for the actor) its KVCache headroom —
  // Algorithm 2's "prevent OOM when colocating with multiple workers".
  ModelMapping AutoParallel(const MappedModelDesc& model, int gpus, double reserved_bytes = 0.0);

  // Minimum GPUs for a colocated set (get_min_alloc).
  int MinAlloc(const std::vector<int>& model_indices, int num_gpus) const;

 private:
  // Per-GPU state of `model` trained by `backend` with layout `cfg`.
  static double StateBytesPerGpu(const MappedModelDesc& model, WorkerBackend backend,
                                 const ParallelConfig& cfg);
  bool SetFits(const std::vector<int>& model_indices, int gpus) const;
  std::vector<int> CandidateSizes(int num_gpus) const;
  std::vector<std::vector<std::vector<int>>> AllPartitions(PlacementKind kind) const;
  void EnumerateAllocations(const std::vector<int>& min_alloc, int num_gpus,
                            const std::vector<int>& sizes,
                            std::vector<std::vector<int>>* out) const;
  double StageCost(const ModelMapping& mapping, RlhfStage stage) const;
  // Generation-stage cost of the actor under (train, gen) on `devices`:
  // one GenerateTime simulation plus the engine's train->gen transition.
  double GenerationCost(const PerfModel& perf, const MappedModelDesc& model,
                        const ClusterSpec& cluster, const std::vector<DeviceId>& devices,
                        const ParallelConfig& train, const GenParallelConfig& gen,
                        ActorEngineMode mode, double kv_budget);

  // What GenerationCost reads from a HybridEngine. Neither the engine's
  // layout nor its transition depends on reserved memory, so the actor's
  // re-searches under other reserved-memory buckets reuse one pricing per
  // (model, gpus, mode, train, gen) instead of re-walking every rank.
  struct EnginePricing {
    int replicas = 0;
    std::vector<DeviceId> replica_devices;  // Generation replica 0.
    double transition_seconds = 0.0;
  };
  using EngineKey = std::tuple<std::string, int, ActorEngineMode, int, int, int, int, int>;

  std::vector<MappedModelDesc> models_;
  RlhfWorkloadSpec workload_;
  ClusterSpec node_template_;
  MapperOptions options_;
  // Cache: (model name, gpus, reserved-memory bucket) -> mapping (§6's
  // parallelism-strategy cache).
  std::map<std::tuple<std::string, int, int>, ModelMapping> cache_;
  // Cache: EngineKey -> the engine's pricing (GenerationCost).
  std::map<EngineKey, EnginePricing> engine_cache_;
  int64_t simulations_ = 0;
  int64_t cache_hits_ = 0;
};

}  // namespace hybridflow

#endif  // SRC_MAPPING_DEVICE_MAPPER_H_
