#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/perf/perf_model.h"

namespace hybridflow {
namespace {

std::vector<DeviceId> Devices(int n) {
  std::vector<DeviceId> devices(static_cast<size_t>(n));
  std::iota(devices.begin(), devices.end(), 0);
  return devices;
}

class PerfModelTest : public ::testing::Test {
 protected:
  ClusterSpec cluster_ = ClusterSpec::WithGpus(16);
  PerfModel perf_{ModelSpec::Llama7B(), cluster_};
};

TEST_F(PerfModelTest, TrainStepScalesDownWithMoreGpus) {
  const double small = perf_.TrainStepTime({1, 2, 2}, Devices(4), 128, 2048, 4);
  ClusterSpec big_cluster = ClusterSpec::WithGpus(16);
  PerfModel big_perf(ModelSpec::Llama7B(), big_cluster);
  const double big = big_perf.TrainStepTime({1, 2, 8}, Devices(16), 128, 2048, 4);
  EXPECT_GT(small, big);
}

TEST_F(PerfModelTest, PipelineBubbleShrinksWithMicrobatches) {
  // Large enough batch that per-microbatch utilization stays saturated;
  // then more microbatches strictly shrink the (p-1)/m bubble.
  const double few = perf_.TrainStepTime({4, 1, 4}, Devices(16), 512, 2048, 4);
  const double many = perf_.TrainStepTime({4, 1, 4}, Devices(16), 512, 2048, 16);
  EXPECT_GT(few, many);
}

TEST_F(PerfModelTest, TinyPerGpuBatchesDegradeUtilization) {
  // §8.3: with a fixed global batch, growing DP shrinks per-GPU work and
  // the achieved MFU drops — throughput stops scaling linearly.
  const double half_batch = perf_.TrainStepTime({1, 1, 16}, Devices(16), 16, 2048, 1);
  const double full_batch = perf_.TrainStepTime({1, 1, 16}, Devices(16), 64, 2048, 1);
  // 4x the work in less than 4x the time.
  EXPECT_LT(full_batch, 3.9 * half_batch);
}

TEST_F(PerfModelTest, TensorParallelAddsCommOverhead) {
  // Same model-parallel degree: tp=4 pays activation all-reduces that
  // pp=4 does not (pp pays a bubble instead; at high microbatch counts TP
  // comm dominates for long sequences).
  const double tp_heavy = perf_.TrainStepTime({1, 4, 4}, Devices(16), 128, 2048, 16);
  const double pp_heavy = perf_.TrainStepTime({4, 1, 4}, Devices(16), 128, 2048, 16);
  EXPECT_GT(tp_heavy, 0.0);
  EXPECT_GT(pp_heavy, 0.0);
}

TEST_F(PerfModelTest, InferIsCheaperThanTrain) {
  EXPECT_LT(perf_.InferTime({1, 2, 8}, Devices(16), 128, 2048),
            perf_.TrainStepTime({1, 2, 8}, Devices(16), 128, 2048, 4));
}

TEST_F(PerfModelTest, ZeroTrainChargesParamGathers) {
  ZeroConfig stage3{ZeroStage::kStage3, 16};
  ZeroConfig stage2{ZeroStage::kStage2, 16};
  EXPECT_GT(perf_.ZeroTrainStepTime(stage3, Devices(16), 128, 2048),
            perf_.ZeroTrainStepTime(stage2, Devices(16), 128, 2048));
}

TEST_F(PerfModelTest, ZeroInferChargesGatherOnlyForStage3) {
  ZeroConfig stage3{ZeroStage::kStage3, 16};
  ZeroConfig none{ZeroStage::kNone, 16};
  EXPECT_GT(perf_.ZeroInferTime(stage3, Devices(16), 128, 2048),
            perf_.ZeroInferTime(none, Devices(16), 128, 2048));
}

TEST_F(PerfModelTest, ScalarHeadSlightlyCheaper) {
  PerfModel scalar(ModelSpec::Llama7B(), cluster_, /*scalar_head=*/true);
  EXPECT_LT(scalar.num_params(), perf_.num_params());
  EXPECT_LT(scalar.InferTime({1, 2, 8}, Devices(16), 128, 2048),
            perf_.InferTime({1, 2, 8}, Devices(16), 128, 2048));
}

// --- Generation -------------------------------------------------------------

TEST_F(PerfModelTest, GenerationDecodeDominatesPrefill) {
  GenTimeBreakdown breakdown = perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024,
                                                  40e9, /*use_kv_cache=*/true);
  EXPECT_GT(breakdown.decode_seconds, breakdown.prefill_seconds);
}

TEST_F(PerfModelTest, NoKvCacheIsMuchSlower) {
  GenTimeBreakdown cached =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 40e9, true);
  GenTimeBreakdown uncached =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 40e9, false);
  EXPECT_GT(uncached.total(), 5.0 * cached.total());
}

TEST_F(PerfModelTest, TinyKvBudgetForcesWaves) {
  GenTimeBreakdown roomy =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 60e9, true);
  GenTimeBreakdown cramped =
      perf_.GenerateTime({1, 2}, Devices(2), 128, 1024, 1024, 2e9, true);
  EXPECT_GT(cramped.waves, roomy.waves);
  EXPECT_GT(cramped.total(), roomy.total());
}

TEST_F(PerfModelTest, Figure15ShapeSmallTpBeatsLargeTpUntilKvBound) {
  // §8.4 / Fig 15: on a fixed device budget, generation latency is minimized
  // at a moderate t_g: t_g = 8 underutilizes, t_g too small starves KVCache.
  // Replicate: 8 GPUs available for generation of batch 1024.
  const int64_t batch = 1024;
  std::map<int, double> latency;
  for (int tg : {1, 2, 4, 8}) {
    const int replicas = 8 / tg;
    const int64_t per_replica = batch / replicas;
    // Best-effort KV budget: capacity minus resident training state (7B
    // colocated, ~15 GB) minus the gathered generation shard.
    const double budget =
        cluster_.gpu.memory_bytes - 15e9 - perf_.GenParamBytesPerGpu({1, tg});
    GenTimeBreakdown breakdown = perf_.GenerateTime({1, tg}, Devices(tg), per_replica, 1024,
                                                    1024, budget, true);
    latency[tg] = breakdown.total();
  }
  // tg=8 (NeMo-style) must be the worst or near-worst of the sweep.
  EXPECT_GT(latency[8], latency[2]);
  EXPECT_GT(latency[8], latency[4]);
}

TEST_F(PerfModelTest, PipelineGenerationPaysHandoffPenalty) {
  GenTimeBreakdown flat =
      perf_.GenerateTime({1, 4}, Devices(4), 128, 1024, 1024, 40e9, true);
  GenTimeBreakdown piped =
      perf_.GenerateTime({4, 1}, Devices(4), 128, 1024, 1024, 40e9, true);
  EXPECT_GT(piped.total(), flat.total());
}

TEST_F(PerfModelTest, WaveCountIsMonotoneInKvBudget) {
  int previous_waves = 1 << 30;
  for (double budget : {2e9, 8e9, 20e9, 60e9}) {
    GenTimeBreakdown breakdown =
        perf_.GenerateTime({1, 2}, Devices(2), 256, 1024, 1024, budget, true);
    EXPECT_LE(breakdown.waves, previous_waves) << budget;
    previous_waves = breakdown.waves;
  }
}

TEST_F(PerfModelTest, WaveCountIsTheClosedFormBlockCapacity) {
  // waves = ceil(batch / clamp(num_blocks / blocks_each, 1, batch)) over
  // 16-token blocks, from a sub-block budget (no whole block: one sequence
  // per wave) up to a budget that fits the whole batch.
  const GenParallelConfig gen{1, 2};
  const int64_t prompt = 1000;
  const int64_t response = 1030;
  const int64_t blocks_each = (prompt + response + 15) / 16;
  const double block_bytes = 16.0 * perf_.KvBytesPerTokenPerGpu(gen);
  for (int64_t batch : {1, 7, 256}) {
    for (double blocks : {0.5, 1.0, 127.0, 128.0, 1000.0, 5e4, 1e6}) {
      const double budget = blocks * block_bytes;
      const int64_t num_blocks = static_cast<int64_t>(budget / block_bytes);
      const int64_t per_wave = std::clamp<int64_t>(num_blocks / blocks_each, 1, batch);
      const int64_t waves = (batch + per_wave - 1) / per_wave;
      EXPECT_EQ(perf_.GenerateTime(gen, Devices(2), batch, prompt, response, budget, true).waves,
                waves)
          << "batch " << batch << " budget " << blocks << " blocks";
    }
  }
}

TEST_F(PerfModelTest, KvBytesShardedByGenConfig) {
  EXPECT_DOUBLE_EQ(perf_.KvBytesPerTokenPerGpu({1, 1}),
                   2.0 * perf_.KvBytesPerTokenPerGpu({1, 2}));
  EXPECT_DOUBLE_EQ(perf_.KvBytesPerTokenPerGpu({1, 1}),
                   2.0 * perf_.KvBytesPerTokenPerGpu({2, 1}));
}

TEST_F(PerfModelTest, MemoryAccountants) {
  // Train memory grows with tokens; infer memory is just the param shard.
  EXPECT_GT(perf_.TrainMemoryPerGpu({1, 2, 8}, 8192, 4),
            perf_.TrainMemoryPerGpu({1, 2, 8}, 1024, 4));
  EXPECT_DOUBLE_EQ(perf_.InferMemoryPerGpu({1, 2, 8}), perf_.param_bytes() / 2.0);
  EXPECT_DOUBLE_EQ(perf_.GenParamBytesPerGpu({2, 2}), perf_.param_bytes() / 4.0);
  ZeroConfig zero{ZeroStage::kStage3, 16};
  EXPECT_LT(perf_.ZeroTrainMemoryPerGpu(zero, 1024),
            18.0 * perf_.num_params());  // Sharded.
}

}  // namespace
}  // namespace hybridflow
