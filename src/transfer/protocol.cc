#include "src/transfer/protocol.h"

#include <optional>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace hybridflow {

const char* TransferProtocolName(TransferProtocol protocol) {
  switch (protocol) {
    case TransferProtocol::kOneToAll:
      return "ONE_TO_ALL";
    case TransferProtocol::k3dProto:
      return "3D_PROTO";
    case TransferProtocol::k3dAllMicroDp:
      return "3D_ALL_MICRO_DP";
    case TransferProtocol::k3dPpOnly:
      return "3D_PP_ONLY";
    case TransferProtocol::kDpProto:
      return "DP_PROTO";
    case TransferProtocol::kAllToAll:
      return "ALL_TO_ALL";
    case TransferProtocol::kMicroDpProto:
      return "MICRO_DP_PROTO";
    case TransferProtocol::kAllGatherProto:
      return "ALL_GATHER_PROTO";
  }
  return "?";
}

ShardPlan PlanShards(TransferProtocol protocol, const ProtocolContext& context) {
  HF_CHECK(context.groups != nullptr);
  const ProcessGroups& groups = *context.groups;
  const ParallelConfig& cfg = groups.train_config();
  ShardPlan plan;
  plan.name = TransferProtocolName(protocol);
  const auto add = [&plan](int rank, int chunk) {
    plan.ranks.push_back(rank);
    plan.chunk.push_back(chunk);
  };
  switch (protocol) {
    case TransferProtocol::kOneToAll:
    case TransferProtocol::kAllToAll:
      for (int rank = 0; rank < groups.world_size(); ++rank) {
        add(rank, 0);
      }
      break;
    case TransferProtocol::k3dProto:
      // Each DP group computes its chunk; the output lives on the last
      // pipeline stage, t = 0 (Table 3).
      plan.chunks = cfg.dp;
      for (int d = 0; d < cfg.dp; ++d) {
        add(groups.RankOf({cfg.pp - 1, 0, d}), d);
      }
      break;
    case TransferProtocol::kDpProto:
      plan.chunks = cfg.dp;
      for (int d = 0; d < cfg.dp; ++d) {
        add(groups.RankOf({0, 0, d}), d);
      }
      break;
    case TransferProtocol::k3dAllMicroDp:
    case TransferProtocol::kMicroDpProto: {
      // One source per generation replica: its (tg = 0, pg = 0) leader. The
      // input splits across every replica, or across the micro-DP replicas
      // of one training replica (each DP group then computes a full copy).
      HF_CHECK_MSG(context.has_gen, "protocol " << plan.name << " requires a generation config");
      const int micro_dp = MicroDpSize(cfg, context.gen);
      const bool per_replica = protocol == TransferProtocol::k3dAllMicroDp;
      plan.chunks = per_replica ? cfg.dp * micro_dp : micro_dp;
      for (int d = 0; d < cfg.dp; ++d) {
        for (int m = 0; m < micro_dp; ++m) {
          add(groups.RankOfGen({0, 0, m, d}, context.gen, context.method),
              per_replica ? d * micro_dp + m : m);
        }
      }
      break;
    }
    case TransferProtocol::k3dPpOnly:
      for (int p = 0; p < cfg.pp; ++p) {
        add(groups.RankOf({p, 0, 0}), 0);
      }
      break;
    case TransferProtocol::kAllGatherProto:
      for (int d = 0; d < cfg.dp; ++d) {
        add(groups.RankOf({0, 0, d}), 0);
      }
      break;
  }
  return plan;
}

DataBatch RunShards(const ShardPlan& plan, const DataBatch& input, const ShardFn& compute,
                    bool parallel, std::string_view compute_span) {
  HF_CHECK_EQ(plan.ranks.size(), plan.chunk.size());
  const MetricLabels labels{{"protocol", plan.name}};
  std::vector<DataBatch> chunks;
  {
    HF_TRACE_SCOPE("protocol.distribute", "transfer");
    MetricsRegistry::Global().GetCounter("protocol.distribute_calls", labels).Increment();
    for (int chunk : plan.chunk) {
      HF_CHECK(chunk >= 0 && chunk < plan.chunks);
    }
    if (plan.chunks > 1) {
      chunks = input.SplitChunks(plan.chunks);
      MetricsRegistry::Global()
          .GetCounter("protocol.shard_rows", labels)
          .Increment(static_cast<double>(input.batch_size()));
    }
  }
  const auto shard = [&](size_t i) -> const DataBatch& {
    return plan.chunks > 1 ? chunks[static_cast<size_t>(plan.chunk[i])] : input;
  };
  std::vector<DataBatch> outputs(plan.ranks.size());
  {
    std::optional<TraceScope> span;
    if (!compute_span.empty()) {
      span.emplace(compute_span, "compute");
    }
    if (parallel && plan.ranks.size() > 1) {
      ThreadPool::Shared().ParallelFor(static_cast<int>(plan.ranks.size()), [&](int index) {
        const size_t i = static_cast<size_t>(index);
        outputs[i] = compute(shard(i), plan.ranks[i]);
      });
    } else {
      for (size_t i = 0; i < plan.ranks.size(); ++i) {
        outputs[i] = compute(shard(i), plan.ranks[i]);
      }
    }
  }
  HF_TRACE_SCOPE("protocol.collect", "transfer");
  MetricsRegistry::Global().GetCounter("protocol.collect_calls", labels).Increment();
  return DataBatch::ConcatBatches(outputs);
}

}  // namespace hybridflow
