// Custom transfer protocols (§4.1): "A user can further extend the
// transfer protocols through implementing customized collect and
// distribute functions."
//
// A protocol is a ShardPlan: the ranks that compute, in collection order,
// and the chunk of the input each one reads. This example builds
// REDUNDANT_PROTO by hand, which sends each data shard to TWO
// data-parallel groups (redundant execution, e.g. to catch silent data
// corruption), and runs it through RunShards, the runner every worker
// group's dispatch uses, next to the built-in 3D_PROTO.
//
// Run: ./custom_protocol

#include <iostream>

#include "src/transfer/protocol.h"

int main() {
  using namespace hybridflow;

  // A 1-2-4 model: 8 ranks, 4 DP groups of TP size 2.
  ParallelConfig train{1, 2, 4};
  std::vector<DeviceId> devices;
  for (int i = 0; i < train.world_size(); ++i) {
    devices.push_back(i);
  }
  ProcessGroups groups(train, devices);
  ProtocolContext context;
  context.groups = &groups;

  // --- The custom plan -------------------------------------------------------
  // Half as many shards as DP groups: groups 0 and 1 compute the two
  // shards, groups 2 and 3 compute them again. As in 3D_PROTO, each group's
  // output comes from its (p = last, t = 0) rank.
  const int shards = train.dp / 2;
  ShardPlan redundant;
  redundant.name = "REDUNDANT_PROTO";
  redundant.chunks = shards;
  for (int d = 0; d < train.dp; ++d) {
    redundant.ranks.push_back(groups.RankOf({train.pp - 1, 0, d}));
    redundant.chunk.push_back(d % shards);
  }

  // --- Push a batch through it -------------------------------------------------
  const int64_t rows = 8;
  DataBatch input;
  DataBatch::TokenColumn prompts;
  for (int64_t i = 0; i < rows; ++i) {
    prompts.push_back({i * 10, i * 10 + 1});
  }
  input.SetTokens("prompts", std::move(prompts));

  // A toy per-row computation: the sum of each prompt's tokens.
  const auto score = [](const DataBatch& shard, int rank) {
    DataBatch::FloatColumn scores;
    for (const std::vector<int64_t>& prompt : shard.Tokens("prompts")) {
      scores.push_back({static_cast<float>(prompt[0] + prompt[1])});
    }
    std::cout << "  rank " << rank << " computed rows " << shard.Tokens("prompts").front()[0] / 10
              << "-" << shard.Tokens("prompts").back()[0] / 10 << "\n";
    DataBatch out;
    out.SetFloat("score", std::move(scores));
    return out;
  };

  std::cout << redundant.name << ":\n";
  DataBatch collected = RunShards(redundant, input, score, /*parallel=*/false, "");
  // Outputs concatenate in plan order: the two primaries, then the replicas.
  const DataBatch primary = collected.Slice(0, rows);
  const DataBatch replica = collected.Slice(rows, 2 * rows);
  const bool agree = primary.Float("score") == replica.Float("score");
  std::cout << "collected " << collected.batch_size() << " rows; the replicas "
            << (agree ? "agree" : "DISAGREE") << "\n\n";

  // --- The built-in protocol for comparison --------------------------------------
  std::cout << "3D_PROTO:\n";
  DataBatch builtin =
      RunShards(PlanShards(TransferProtocol::k3dProto, context), input, score, false, "");
  const bool same = builtin.Float("score") == primary.Float("score");
  std::cout << "collected " << builtin.batch_size() << " rows in " << train.dp
            << " shards with no redundancy; " << (same ? "same" : "DIFFERENT")
            << " scores\n";
  std::cout << "\nNo worker or controller code changed: the plan is the only\n"
               "extension point, which is the §4.1 flexibility claim.\n";
  return agree && same ? 0 : 1;
}
