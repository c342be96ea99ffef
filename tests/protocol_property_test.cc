// Randomized property sweep over the transfer-protocol layer: for every
// built-in protocol and many random (parallelism, batch) configurations,
// running an echo through the protocol's plan must reproduce the input
// batch (once per source for broadcast protocols), 3D_PROTO must have one
// source per DP group reading that group's chunk, and chunks must be
// balanced.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/common/rng.h"
#include "src/transfer/protocol.h"

namespace hybridflow {
namespace {

std::vector<DeviceId> Devices(int n) {
  std::vector<DeviceId> devices(static_cast<size_t>(n));
  std::iota(devices.begin(), devices.end(), 0);
  return devices;
}

DataBatch RandomBatch(int64_t rows, Rng& rng) {
  DataBatch batch;
  DataBatch::TokenColumn prompts;
  DataBatch::FloatColumn scores;
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<int64_t> prompt;
    const int64_t len = rng.UniformInt(1, 6);
    for (int64_t k = 0; k < len; ++k) {
      prompt.push_back(rng.UniformInt(0, 31));
    }
    prompts.push_back(std::move(prompt));
    scores.push_back({static_cast<float>(rng.Uniform(-1, 1))});
  }
  batch.SetTokens("prompts", std::move(prompts));
  batch.SetFloat("scores", std::move(scores));
  return batch;
}

struct RandomConfig {
  ParallelConfig train;
  GenParallelConfig gen;
};

RandomConfig DrawConfig(Rng& rng) {
  const int tp_options[] = {1, 2, 4, 8};
  const int pp_options[] = {1, 2, 4};
  const int dp_options[] = {1, 2, 3, 4};
  RandomConfig config;
  config.train.tp = tp_options[rng.UniformInt(0, 3)];
  config.train.pp = pp_options[rng.UniformInt(0, 2)];
  config.train.dp = dp_options[rng.UniformInt(0, 3)];
  // Compatible generation sizes: divisors.
  std::vector<int> tg_candidates;
  for (int tg = 1; tg <= config.train.tp; tg *= 2) {
    if (config.train.tp % tg == 0) {
      tg_candidates.push_back(tg);
    }
  }
  std::vector<int> pg_candidates;
  for (int pg = 1; pg <= config.train.pp; pg *= 2) {
    if (config.train.pp % pg == 0) {
      pg_candidates.push_back(pg);
    }
  }
  config.gen.tp = tg_candidates[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(tg_candidates.size()) - 1))];
  config.gen.pp = pg_candidates[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(pg_candidates.size()) - 1))];
  return config;
}

DataBatch Echo(const DataBatch& shard, int) { return shard; }

TEST(ProtocolPropertySweep, EchoRoundTripOnRandomConfigs) {
  Rng rng(777);
  const TransferProtocol protocols[] = {
      TransferProtocol::k3dProto,      TransferProtocol::kDpProto,
      TransferProtocol::k3dAllMicroDp, TransferProtocol::kMicroDpProto,
      TransferProtocol::kOneToAll,     TransferProtocol::k3dPpOnly,
      TransferProtocol::kAllGatherProto};
  for (int trial = 0; trial < 60; ++trial) {
    const RandomConfig config = DrawConfig(rng);
    ProcessGroups groups(config.train, Devices(config.train.world_size()));
    for (TransferProtocol protocol : protocols) {
      ProtocolContext context;
      context.groups = &groups;
      context.gen = config.gen;
      context.method = rng.UniformInt(0, 1) == 0 ? GenGroupingMethod::kVanilla
                                                 : GenGroupingMethod::kZeroRedundancy;
      context.has_gen = true;

      // Row count: something that stresses uneven splits.
      const int64_t rows = rng.UniformInt(1, 40);
      DataBatch input = RandomBatch(rows, rng);
      const ShardPlan plan = PlanShards(protocol, context);
      ASSERT_FALSE(plan.ranks.empty());
      ASSERT_EQ(plan.chunk.size(), plan.ranks.size());
      DataBatch collected = RunShards(plan, input, Echo, trial % 2 == 0, "");

      // Splitting protocols reproduce the batch exactly; broadcast
      // protocols reproduce one copy per source.
      if (protocol == TransferProtocol::kMicroDpProto) {
        // Splits across micro DP only; collect concatenates d copies.
        EXPECT_EQ(collected.batch_size(), rows * config.train.dp);
      } else if (plan.chunks > 1) {
        ASSERT_EQ(collected.batch_size(), rows)
            << TransferProtocolName(protocol) << " " << config.train.ToString();
        EXPECT_EQ(collected.Tokens("prompts"), input.Tokens("prompts"));
        EXPECT_EQ(collected.Float("scores"), input.Float("scores"));
      } else {
        EXPECT_EQ(collected.batch_size(), static_cast<int64_t>(plan.ranks.size()) * rows)
            << TransferProtocolName(protocol) << " " << config.train.ToString();
      }
    }
  }
}

TEST(ProtocolPropertySweep, OneSourcePerDpGroupReadsItsChunk) {
  // Under 3D_PROTO every rank of a DP group would see the same shard, so
  // one source computes for the whole model-parallel block: exactly one
  // per DP group, reading that group's chunk.
  Rng rng(888);
  for (int trial = 0; trial < 30; ++trial) {
    const RandomConfig config = DrawConfig(rng);
    ProcessGroups groups(config.train, Devices(config.train.world_size()));
    ProtocolContext context;
    context.groups = &groups;
    const ShardPlan plan = PlanShards(TransferProtocol::k3dProto, context);
    ASSERT_EQ(plan.chunks, config.train.dp);
    ASSERT_EQ(plan.ranks.size(), static_cast<size_t>(config.train.dp));
    for (size_t i = 0; i < plan.ranks.size(); ++i) {
      EXPECT_EQ(groups.TrainCoordsOf(plan.ranks[i]).d, static_cast<int>(i));
      EXPECT_EQ(plan.chunk[i], static_cast<int>(i));
    }
  }
}

TEST(ProtocolPropertySweep, ShardSizesAreBalanced) {
  // No shard differs from another by more than one row under 3D_PROTO.
  Rng rng(999);
  for (int trial = 0; trial < 30; ++trial) {
    const RandomConfig config = DrawConfig(rng);
    ProcessGroups groups(config.train, Devices(config.train.world_size()));
    ProtocolContext context;
    context.groups = &groups;
    DataBatch input = RandomBatch(rng.UniformInt(1, 50), rng);
    int64_t min_rows = input.batch_size();
    int64_t max_rows = 0;
    RunShards(PlanShards(TransferProtocol::k3dProto, context), input,
              [&](const DataBatch& shard, int) {
                min_rows = std::min(min_rows, shard.batch_size());
                max_rows = std::max(max_rows, shard.batch_size());
                return shard;
              },
              /*parallel=*/false, "");
    EXPECT_LE(max_rows - min_rows, 1);
  }
}

}  // namespace
}  // namespace hybridflow
