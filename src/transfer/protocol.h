// Transfer protocols: the inter-node data resharding layer of the hybrid
// programming model (§4.1, Appendix B / Table 3).
//
// Every worker-group method is registered with a protocol: a distribute
// half (which rows of the controller-side input each rank sees) and a
// collect half (which ranks' outputs are concatenated into the
// controller-side result). Here a protocol is a ShardPlan: the ranks that
// compute, in collection order, and the row range each one reads. The
// single controller moves only batch *futures*; actual payloads move
// GPU-to-GPU, which the simulation layer accounts separately.
//
// Built-in protocols (Table 3):
//   ONE_TO_ALL       broadcast input to all ranks / gather from all ranks
//   3D_PROTO         split across DP groups, broadcast within each model
//                    block / collect from the (p = last, t = 0) rank of
//                    each DP group
//   3D_ALL_MICRO_DP  split across (d x micro-dp) generation replicas /
//                    collect from the local-rank-0 worker of each micro DP
//                    group (used with the 3D-HybridEngine)
//   3D_PP_ONLY       broadcast to all / collect from (t=0, d=0) of each PP
//                    stage
//   DP_PROTO         split across DP ranks / gather from all DP ranks
//   ALL_TO_ALL       broadcast to all ranks / gather from all ranks
//                    (debugging)
// plus MICRO_DP_PROTO and ALL_GATHER_PROTO covering the remaining §4.1
// resharding cases. A user protocol is a hand-built ShardPlan run through
// RunShards, the same runner the worker groups use
// (examples/custom_protocol.cpp).
#ifndef SRC_TRANSFER_PROTOCOL_H_
#define SRC_TRANSFER_PROTOCOL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/data_batch.h"
#include "src/parallel/process_groups.h"

namespace hybridflow {

enum class TransferProtocol {
  kOneToAll,
  k3dProto,
  k3dAllMicroDp,
  k3dPpOnly,
  kDpProto,
  kAllToAll,
  kMicroDpProto,   // Split across micro DP replicas of one training replica.
  kAllGatherProto, // Broadcast input; collect full gather from DP leaders.
};

const char* TransferProtocolName(TransferProtocol protocol);

// Context a protocol may need beyond the training process groups.
struct ProtocolContext {
  const ProcessGroups* groups = nullptr;
  // Generation regrouping, required by micro-DP protocols.
  GenParallelConfig gen;
  GenGroupingMethod method = GenGroupingMethod::kZeroRedundancy;
  bool has_gen = false;
};

// Who computes which rows under one protocol call. In the paper every
// rank of a model-parallel block receives the input because every rank
// computes on it; the data plane computes once per collect source, a
// stand-in for its whole block, so a plan names only those sources.
struct ShardPlan {
  // Counter label of the calls run under this plan (the protocol's name).
  std::string name;
  // Computing ranks, in collection order.
  std::vector<int> ranks;
  // chunk[i]: the index of ranks[i]'s chunk among `chunks` near-equal row
  // ranges of the input (DataBatch::SplitChunks).
  std::vector<int> chunk;
  // 1: every source reads the whole input in place.
  int chunks = 1;
};

// The Table 3 plan of a built-in protocol. Micro-DP protocols require
// `context.has_gen`.
ShardPlan PlanShards(TransferProtocol protocol, const ProtocolContext& context);

// One source's computation on its shard of the input.
using ShardFn = std::function<DataBatch(const DataBatch& shard, int rank)>;

// Runs one call under `plan`: splits `input` into the plan's chunks once,
// runs `compute(shard, rank)` once per source and concatenates the outputs
// in plan order. Distribute and collect are `transfer` spans; when
// `compute_span` is non-empty, the sources run under a `compute` span of
// that name.
//
// With `parallel` and more than one source, the sources run concurrently
// on ThreadPool::Shared(). Each call then owns its output slot, reads its
// shard (possibly shared with other sources) read-only, and must draw
// randomness only from per-(call, rank) streams so that the result does
// not depend on interleaving. Otherwise the sources run in plan order on
// the calling thread.
DataBatch RunShards(const ShardPlan& plan, const DataBatch& input, const ShardFn& compute,
                    bool parallel, std::string_view compute_span);

}  // namespace hybridflow

#endif  // SRC_TRANSFER_PROTOCOL_H_
