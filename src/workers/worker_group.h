// ModelWorkerGroup: the multi-controller plane of the hybrid programming
// model (§4.1).
//
// A group encapsulates one model's distributed computation over a
// ResourcePool: it builds the model's parallel groups, registers its memory
// footprint on the simulated devices, and dispatches every method call
// through its transfer protocol's shard plan (each computing rank runs on
// its row range; outputs concatenate in collection order), scheduling the
// op's duration on the pool's device timelines.
// Worker methods never perform inter-model communication — that decoupling
// is the flexibility claim of §4.
//
// Backends mirror the paper's base classes: 3DParallelWorker (Megatron-
// style p-t-d groups), FSDPWorker, and ZeROWorker (DP sharding; modeled as
// ZeRO stages for memory/comm accounting).
#ifndef SRC_WORKERS_WORKER_GROUP_H_
#define SRC_WORKERS_WORKER_GROUP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/controller/future.h"
#include "src/controller/resource_pool.h"
#include "src/data/alignment_task.h"
#include "src/nn/adam.h"
#include "src/nn/policy_net.h"
#include "src/obs/metrics.h"
#include "src/parallel/process_groups.h"
#include "src/parallel/zero_config.h"
#include "src/perf/perf_model.h"
#include "src/transfer/protocol.h"
#include "src/workers/workload.h"

namespace hybridflow {

enum class WorkerBackend {
  k3dParallel,  // 3DParallelWorker.
  kFsdp,        // FSDPWorker (modeled as ZeRO-3 DP sharding).
  kZero,        // ZeROWorker.
};

struct WorkerGroupOptions {
  std::string name;
  ModelSpec model;
  bool scalar_head = false;  // Critic / reward / cost models.
  bool trainable = false;    // Actor and critic hold optimizer state.
  WorkerBackend backend = WorkerBackend::k3dParallel;
  // 3D strategy; for kFsdp/kZero use pp=tp=1, dp=pool size.
  ParallelConfig train_cfg;
  ZeroStage zero_stage = ZeroStage::kStage3;
  PerfParams perf;
};

// Configuration of the real (toy-scale) computation plane.
struct RealComputeOptions {
  bool enabled = true;
  AlignmentTask task;
  PolicyNetConfig net;
  AdamConfig adam;
  uint64_t seed = 1;
};

class ModelWorkerGroup {
 public:
  ModelWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                   Controller* controller, RealComputeOptions real);
  virtual ~ModelWorkerGroup();

  ModelWorkerGroup(const ModelWorkerGroup&) = delete;
  ModelWorkerGroup& operator=(const ModelWorkerGroup&) = delete;

  const std::string& name() const { return options_.name; }
  const WorkerGroupOptions& options() const { return options_; }
  const ProcessGroups& groups() const { return groups_; }
  const ResourcePool& pool() const { return *pool_; }
  const PerfModel& perf() const { return perf_; }
  bool real_enabled() const { return real_.enabled; }
  const RealComputeOptions& real() const { return real_; }

  // Per-GPU bytes of resident model state (params or full train state).
  double StateBytesPerGpu() const;

  // Per-GPU bytes of resident *parameters* only (the reusable part during
  // generation): 2N/mp for 3D parallelism, the ZeRO shard for DP backends.
  double ResidentParamBytesPerGpu() const;

 protected:
  // Generic RPC: runs `compute` on every source of the protocol's shard
  // plan (RunShards), schedules `duration` seconds on the pool devices
  // starting no earlier than the input's availability plus transfer
  // latency, and returns the collected future.
  //
  // Concurrency contract: forward-only calls run their sources concurrently
  // under RunShards' contract, and their closures must also treat group
  // state (net_, perf_, groups_) as read-only. "train" calls run in plan
  // order on the calling thread: backward passes accumulate into shared
  // gradients.
  BatchFuture Dispatch(const std::string& op, const std::string& category,
                       TransferProtocol protocol, const BatchFuture& input, double duration,
                       const ShardFn& compute, double nominal_output_bytes);

  // Inter-model transfer latency of the nominal payload.
  double TransferSeconds(double nominal_bytes) const;

  // Forward-pass latency under this group's backend (3D parallel or
  // ZeRO/FSDP with sharded-parameter gathering).
  double InferSeconds(int64_t sequences, int64_t seq_len) const;

  // Training-step latency for `sequences` under this group's backend.
  double TrainStepSeconds(int64_t sequences, int64_t seq_len) const;

  virtual ProtocolContext MakeProtocolContext() const;

  // Microbatch count used for pipeline-parallel training of `sequences`.
  int NumMicrobatches(int64_t shard_sequences) const;

  Controller* controller_;
  std::shared_ptr<ResourcePool> pool_;
  WorkerGroupOptions options_;
  RealComputeOptions real_;
  ProcessGroups groups_;
  PerfModel perf_;

 private:
  // Cached registry handles for the dispatch hot path (registry lookups
  // take a mutex and rebuild label vectors; handles are pointer-stable for
  // the process lifetime). Dispatch runs only on the single-controller
  // thread — compute closures never touch these — so the per-op map needs
  // no lock.
  Histogram& dispatch_wall_us_;
  std::map<std::string, Counter*> dispatch_op_counters_;
};

// Paper-facing aliases for the three base classes (§4.1 / Appendix A).
using ThreeDParallelWorker = ModelWorkerGroup;
using FsdpWorker = ModelWorkerGroup;
using ZeroWorker = ModelWorkerGroup;

}  // namespace hybridflow

#endif  // SRC_WORKERS_WORKER_GROUP_H_
