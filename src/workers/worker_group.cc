#include "src/workers/worker_group.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace hybridflow {

namespace {

ParallelConfig EffectiveConfig(const WorkerGroupOptions& options, int pool_size) {
  ParallelConfig cfg = options.train_cfg;
  if (options.backend != WorkerBackend::k3dParallel) {
    // DP-sharding backends span the whole pool with data parallelism.
    cfg = ParallelConfig{1, 1, pool_size};
  }
  return cfg;
}

}  // namespace

ModelWorkerGroup::ModelWorkerGroup(WorkerGroupOptions options, std::shared_ptr<ResourcePool> pool,
                                   Controller* controller, RealComputeOptions real)
    : controller_(controller),
      pool_(std::move(pool)),
      options_(std::move(options)),
      real_(std::move(real)),
      groups_(EffectiveConfig(options_, pool_->size()), pool_->devices()),
      perf_(options_.model, controller->spec(), options_.scalar_head, options_.perf),
      dispatch_wall_us_(MetricsRegistry::Global().GetHistogram(
          "dispatch.wall_us", ExponentialBuckets(1.0, 10.0, 7), {{"model", options_.name}})) {
  HF_CHECK(controller_ != nullptr);
  HF_CHECK_MSG(groups_.world_size() == pool_->size(),
               "model " << options_.name << " parallel strategy "
                        << groups_.train_config().ToString() << " does not cover pool of "
                        << pool_->size() << " GPUs");
  // Register the model's resident memory on its devices.
  const double per_gpu = StateBytesPerGpu();
  for (DeviceId device : pool_->devices()) {
    controller_->cluster().memory(device).Allocate(options_.name, per_gpu);
  }
}

ModelWorkerGroup::~ModelWorkerGroup() {
  for (DeviceId device : pool_->devices()) {
    controller_->cluster().memory(device).FreeAll(options_.name);
  }
}

double ModelWorkerGroup::StateBytesPerGpu() const {
  const double params = perf_.num_params();
  if (options_.backend == WorkerBackend::k3dParallel) {
    const double mp = static_cast<double>(groups_.train_config().model_parallel_size());
    if (options_.trainable) {
      return ModelSpec::kTrainBytesPerParam * params / mp;
    }
    return 2.0 * params / mp;
  }
  // FSDP / ZeRO backends shard across DP.
  ZeroConfig zero{options_.backend == WorkerBackend::kFsdp ? ZeroStage::kStage3
                                                           : options_.zero_stage,
                  groups_.train_config().dp};
  if (options_.trainable) {
    return ZeroTrainStateBytesPerGpu(params, zero);
  }
  return ZeroParamBytesPerGpu(params, zero);
}

double ModelWorkerGroup::ResidentParamBytesPerGpu() const {
  const double params = perf_.num_params();
  if (options_.backend == WorkerBackend::k3dParallel) {
    return 2.0 * params / static_cast<double>(groups_.train_config().model_parallel_size());
  }
  ZeroConfig zero{options_.backend == WorkerBackend::kFsdp ? ZeroStage::kStage3
                                                           : options_.zero_stage,
                  groups_.train_config().dp};
  return ZeroParamBytesPerGpu(params, zero);
}

double ModelWorkerGroup::TransferSeconds(double nominal_bytes) const {
  if (nominal_bytes <= 0.0) {
    return 0.0;
  }
  // Experience batches move GPU-to-GPU; the conservative path is the NIC.
  return nominal_bytes / controller_->spec().nic_bandwidth + controller_->spec().link_latency;
}

double ModelWorkerGroup::InferSeconds(int64_t sequences, int64_t seq_len) const {
  if (options_.backend == WorkerBackend::k3dParallel) {
    return perf_.InferTime(groups_.train_config(), pool_->devices(), sequences, seq_len);
  }
  ZeroConfig zero{options_.backend == WorkerBackend::kFsdp ? ZeroStage::kStage3
                                                           : options_.zero_stage,
                  groups_.train_config().dp};
  return perf_.ZeroInferTime(zero, pool_->devices(), sequences, seq_len);
}

double ModelWorkerGroup::TrainStepSeconds(int64_t sequences, int64_t seq_len) const {
  const ParallelConfig& cfg = groups_.train_config();
  if (options_.backend == WorkerBackend::k3dParallel) {
    const int64_t shard = (sequences + cfg.dp - 1) / cfg.dp;
    return perf_.TrainStepTime(cfg, pool_->devices(), sequences, seq_len,
                               NumMicrobatches(shard));
  }
  ZeroConfig zero{options_.backend == WorkerBackend::kFsdp ? ZeroStage::kStage3
                                                           : options_.zero_stage,
                  cfg.dp};
  return perf_.ZeroTrainStepTime(zero, pool_->devices(), sequences, seq_len);
}

ProtocolContext ModelWorkerGroup::MakeProtocolContext() const {
  ProtocolContext context;
  context.groups = &groups_;
  return context;
}

int ModelWorkerGroup::NumMicrobatches(int64_t shard_sequences) const {
  const int pp = groups_.train_config().pp;
  const int64_t target = std::max<int64_t>(1, 4 * pp);
  return static_cast<int>(std::min<int64_t>(std::max<int64_t>(shard_sequences, 1), target));
}

BatchFuture ModelWorkerGroup::Dispatch(const std::string& op, const std::string& category,
                                       TransferProtocol protocol, const BatchFuture& input,
                                       double duration, const ShardFn& compute,
                                       double nominal_output_bytes) {
  HF_TRACE_SCOPE(options_.name + "." + op, "dispatch");
  const double dispatch_start_us = WallclockTracer::NowMicros();

  // Data plane: forward-only computations are independent across shards
  // and run on the worker thread pool (the multi-controller plane);
  // updates stay sequential because backward passes accumulate into shared
  // parameter gradients.
  DataBatch collected;
  if (real_.enabled && !input.data.empty()) {
    collected = RunShards(PlanShards(protocol, MakeProtocolContext()), input.data, compute,
                          /*parallel=*/category != "train", options_.name + "." + op + ".compute");
  }

  // Performance plane: one exclusive interval on all pool devices.
  const SimTime ready = input.ready_time + TransferSeconds(input.nominal_bytes);
  const TraceSpan& span = controller_->cluster().ScheduleOp(
      options_.name + "." + op, category, pool_->devices(), ready, duration);

  Counter*& op_counter = dispatch_op_counters_[op];
  if (op_counter == nullptr) {
    op_counter = &MetricsRegistry::Global().GetCounter(
        "dispatch.ops", {{"model", options_.name}, {"op", op}});
  }
  op_counter->Increment();
  dispatch_wall_us_.Observe(WallclockTracer::NowMicros() - dispatch_start_us);

  HF_LOG(kDebug) << options_.name << "." << op << " [" << TransferProtocolName(protocol)
                 << "] start=" << span.start << " dur=" << duration;
  return BatchFuture{std::move(collected), span.end, nominal_output_bytes};
}

}  // namespace hybridflow
