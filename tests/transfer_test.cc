#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>

#include "src/transfer/protocol.h"

namespace hybridflow {
namespace {

std::vector<DeviceId> Devices(int n) {
  std::vector<DeviceId> devices(static_cast<size_t>(n));
  std::iota(devices.begin(), devices.end(), 0);
  return devices;
}

DataBatch MakeBatch(int64_t rows) {
  DataBatch batch;
  DataBatch::TokenColumn prompts;
  for (int64_t i = 0; i < rows; ++i) {
    prompts.push_back({i});
  }
  batch.SetTokens("prompts", std::move(prompts));
  return batch;
}

ProtocolContext Context(const ProcessGroups& groups) {
  ProtocolContext context;
  context.groups = &groups;
  return context;
}

ProtocolContext GenContext(const ProcessGroups& groups, GenParallelConfig gen,
                           GenGroupingMethod method) {
  ProtocolContext context = Context(groups);
  context.gen = gen;
  context.method = method;
  context.has_gen = true;
  return context;
}

DataBatch Echo(const DataBatch& shard, int) { return shard; }

// The first prompt token of the shard each source read, by rank.
std::map<int, int64_t> FirstRowByRank(const ShardPlan& plan, const DataBatch& input) {
  std::map<int, int64_t> first;
  RunShards(plan, input,
            [&first](const DataBatch& shard, int rank) {
              first[rank] = shard.Tokens("prompts")[0][0];
              return shard;
            },
            /*parallel=*/false, "");
  return first;
}

// The fundamental protocol invariant: if every source echoes its shard,
// running the plan reproduces the original batch.
void CheckRoundTrip(TransferProtocol protocol, const ProtocolContext& context, int64_t rows) {
  DataBatch input = MakeBatch(rows);
  DataBatch collected = RunShards(PlanShards(protocol, context), input, Echo, false, "");
  ASSERT_EQ(collected.batch_size(), rows);
  EXPECT_EQ(collected.Tokens("prompts"), input.Tokens("prompts"));
}

TEST(ProtocolTest, ThreeDProtoRoundTrip) {
  ProcessGroups groups({2, 2, 4}, Devices(16));
  CheckRoundTrip(TransferProtocol::k3dProto, Context(groups), 12);
}

TEST(ProtocolTest, DpProtoRoundTrip) {
  ProcessGroups groups({1, 1, 8}, Devices(8));
  CheckRoundTrip(TransferProtocol::kDpProto, Context(groups), 17);
}

TEST(ProtocolTest, MicroDpRoundTripBothMethods) {
  ProcessGroups groups({1, 8, 2}, Devices(16));
  for (auto method : {GenGroupingMethod::kVanilla, GenGroupingMethod::kZeroRedundancy}) {
    CheckRoundTrip(TransferProtocol::k3dAllMicroDp,
                   GenContext(groups, {1, 2}, method), 16);
  }
}

TEST(ProtocolTest, ThreeDProtoDistributesByDpGroup) {
  ProcessGroups groups({1, 2, 2}, Devices(4));
  // One source per DP group computes for its model-parallel block: rank 0
  // (d=0) reads rows 0-1, rank 2 (d=1) reads rows 2-3.
  const std::map<int, int64_t> first =
      FirstRowByRank(PlanShards(TransferProtocol::k3dProto, Context(groups)), MakeBatch(4));
  EXPECT_EQ(first, (std::map<int, int64_t>{{0, 0}, {2, 2}}));
}

TEST(ProtocolTest, ThreeDProtoCollectsFromLastStageTpZero) {
  // Table 3: output exists on the last pipeline stage, t = 0, per DP group.
  ProcessGroups groups({2, 2, 2}, Devices(8));
  const ShardPlan plan = PlanShards(TransferProtocol::k3dProto, Context(groups));
  ASSERT_EQ(plan.ranks.size(), 2u);
  for (int rank : plan.ranks) {
    TrainCoords coords = groups.TrainCoordsOf(rank);
    EXPECT_EQ(coords.p, 1);  // Last of 2 stages.
    EXPECT_EQ(coords.t, 0);
  }
}

TEST(ProtocolTest, OneToAllBroadcastsEverywhere) {
  // Every rank runs the same computation under ONE_TO_ALL (SPMD): every
  // rank is a source and reads the whole input.
  ProcessGroups groups({1, 2, 2}, Devices(4));
  const ShardPlan plan = PlanShards(TransferProtocol::kOneToAll, Context(groups));
  EXPECT_EQ(plan.ranks, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plan.chunks, 1);
  DataBatch collected = RunShards(plan, MakeBatch(3), Echo, false, "");
  EXPECT_EQ(collected.batch_size(), 12);
}

TEST(ProtocolTest, PpOnlyCollectsOnePerStage) {
  ProcessGroups groups({4, 2, 1}, Devices(8));
  const ShardPlan plan = PlanShards(TransferProtocol::k3dPpOnly, Context(groups));
  ASSERT_EQ(plan.ranks.size(), 4u);
  for (size_t i = 0; i < plan.ranks.size(); ++i) {
    TrainCoords coords = groups.TrainCoordsOf(plan.ranks[i]);
    EXPECT_EQ(coords.p, static_cast<int>(i));
    EXPECT_EQ(coords.t, 0);
    EXPECT_EQ(coords.d, 0);
  }
}

TEST(ProtocolTest, AllToAllGathersEveryRank) {
  ProcessGroups groups({1, 1, 4}, Devices(4));
  DataBatch collected = RunShards(PlanShards(TransferProtocol::kAllToAll, Context(groups)),
                                  MakeBatch(2), Echo, false, "");
  EXPECT_EQ(collected.batch_size(), 8);  // 4 ranks x 2 rows each.
}

TEST(ProtocolTest, MicroDpSourcesAreReplicaLeaders) {
  ProcessGroups groups({1, 4, 2}, Devices(8));
  auto context = GenContext(groups, {1, 2}, GenGroupingMethod::kZeroRedundancy);
  const ShardPlan plan = PlanShards(TransferProtocol::k3dAllMicroDp, context);
  // d * micro_dp = 2 * 2 = 4 generation replicas, one chunk each.
  ASSERT_EQ(plan.ranks.size(), 4u);
  EXPECT_EQ(plan.chunks, 4);
  for (size_t i = 0; i < plan.ranks.size(); ++i) {
    GenCoords coords = groups.GenCoordsOf(plan.ranks[i], context.gen, context.method);
    EXPECT_EQ(coords.tg, 0);
    EXPECT_EQ(coords.pg, 0);
    EXPECT_EQ(plan.chunk[i], coords.d * 2 + coords.micro_dp);
  }
}

TEST(ProtocolTest, MicroDpRequiresGenContext) {
  ProcessGroups groups({1, 4, 2}, Devices(8));
  EXPECT_DEATH(PlanShards(TransferProtocol::k3dAllMicroDp, Context(groups)),
               "requires a generation config");
}

TEST(ProtocolTest, NamesAreStable) {
  EXPECT_STREQ(TransferProtocolName(TransferProtocol::k3dProto), "3D_PROTO");
  EXPECT_STREQ(TransferProtocolName(TransferProtocol::k3dAllMicroDp), "3D_ALL_MICRO_DP");
  EXPECT_STREQ(TransferProtocolName(TransferProtocol::kOneToAll), "ONE_TO_ALL");
}

TEST(ProtocolRunnerTest, RunsUserBuiltPlan) {
  // A user protocol is a plan: two sources read the halves of the input
  // in reverse, and their outputs concatenate in plan order.
  ShardPlan plan;
  plan.name = "REVERSE_PROTO";
  plan.ranks = {1, 0};
  plan.chunk = {1, 0};
  plan.chunks = 2;
  DataBatch collected = RunShards(plan, MakeBatch(4), Echo, false, "");
  EXPECT_EQ(collected.Tokens("prompts"),
            (DataBatch::TokenColumn{{2}, {3}, {0}, {1}}));
  EXPECT_EQ(FirstRowByRank(plan, MakeBatch(4)), (std::map<int, int64_t>{{0, 0}, {1, 2}}));
}

TEST(ProtocolRunnerTest, CallsComputeOncePerSourceWithItsRank) {
  ProcessGroups groups({2, 2, 4}, Devices(16));
  const ShardPlan plan = PlanShards(TransferProtocol::k3dProto, Context(groups));
  for (bool parallel : {false, true}) {
    std::vector<std::atomic<int>> calls(16);
    RunShards(plan, MakeBatch(8),
              [&calls](const DataBatch& shard, int rank) {
                calls[static_cast<size_t>(rank)].fetch_add(1);
                return shard;
              },
              parallel, "");
    for (int rank = 0; rank < 16; ++rank) {
      const bool source =
          std::find(plan.ranks.begin(), plan.ranks.end(), rank) != plan.ranks.end();
      EXPECT_EQ(calls[static_cast<size_t>(rank)].load(), source ? 1 : 0)
          << "rank " << rank << (parallel ? " parallel" : " sequential");
    }
  }
}

}  // namespace
}  // namespace hybridflow
