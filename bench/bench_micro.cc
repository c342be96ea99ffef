// Microbenchmarks (google-benchmark) for HybridFlow-CPP's hot paths: the
// collective cost models, parallel-group algebra, transfer protocols, the
// autograd engine, policy-network forward/backward, GAE, and the
// auto-parallel search. These guard against performance regressions in the
// framework itself (the mapping search calls these paths millions of
// times).

#include <benchmark/benchmark.h>

#include <numeric>

#include "src/baselines/system_builder.h"
#include "src/mapping/device_mapper.h"
#include "src/rlhf/advantage.h"

namespace hybridflow {
namespace {

std::vector<DeviceId> Devices(int n) {
  std::vector<DeviceId> devices(static_cast<size_t>(n));
  std::iota(devices.begin(), devices.end(), 0);
  return devices;
}

void BM_AllGatherCostModel(benchmark::State& state) {
  ClusterSpec cluster = ClusterSpec::WithGpus(static_cast<int>(state.range(0)));
  std::vector<DeviceId> devices = Devices(cluster.world_size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllGatherTime(cluster, devices, 14e9));
  }
}
BENCHMARK(BM_AllGatherCostModel)->Arg(8)->Arg(64)->Arg(128);

void BM_ProcessGroupConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ParallelConfig cfg{2, 4, n / 8};
  for (auto _ : state) {
    ProcessGroups groups(cfg, Devices(n));
    benchmark::DoNotOptimize(groups.MicroDpGroup(0, {1, 2}, GenGroupingMethod::kZeroRedundancy));
  }
}
BENCHMARK(BM_ProcessGroupConstruction)->Arg(16)->Arg(128);

void BM_ProtocolRoundTrip(benchmark::State& state) {
  ProcessGroups groups({1, 4, 4}, Devices(16));
  ProtocolContext context;
  context.groups = &groups;
  DataBatch batch;
  DataBatch::TokenColumn prompts(64, std::vector<int64_t>(16, 1));
  batch.SetTokens("prompts", prompts);
  const ShardPlan plan = PlanShards(TransferProtocol::k3dProto, context);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunShards(
        plan, batch, [](const DataBatch& shard, int) { return shard; }, false, ""));
  }
}
BENCHMARK(BM_ProtocolRoundTrip);

void BM_PolicyNetForwardBackward(benchmark::State& state) {
  Rng rng(1);
  PolicyNetConfig config;
  config.vocab_size = 16;
  config.context_window = 4;
  config.embed_dim = 16;
  config.hidden_dim = 32;
  PolicyNet net(config, rng);
  std::vector<std::vector<int64_t>> contexts(static_cast<size_t>(state.range(0)),
                                             {1, 2, 3, 4});
  std::vector<int64_t> targets(contexts.size(), 5);
  for (auto _ : state) {
    Tensor loss = Neg(Mean(net.LogProb(contexts, targets)));
    loss.Backward();
    for (Tensor& param : net.Parameters()) {
      param.ZeroGrad();
    }
  }
}
BENCHMARK(BM_PolicyNetForwardBackward)->Arg(32)->Arg(256);

void BM_GaeComputation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> rewards(n, 0.1f);
  std::vector<float> values(n, 0.5f);
  std::vector<float> advantages;
  std::vector<float> returns;
  for (auto _ : state) {
    GaeFromRewards(rewards, values, 1.0f, 0.95f, &advantages, &returns);
    benchmark::DoNotOptimize(advantages.data());
  }
}
BENCHMARK(BM_GaeComputation)->Arg(1024)->Arg(16384);

void BM_AutoParallelSearch(benchmark::State& state) {
  const int gpus = static_cast<int>(state.range(0));
  MappedModelDesc actor{"actor", ModelSpec::Llama13B(), true, false, true};
  for (auto _ : state) {
    // Fresh mapper each time: measures the uncached search.
    DeviceMapper mapper({actor}, RlhfWorkloadSpec(), ClusterSpec::WithGpus(gpus));
    benchmark::DoNotOptimize(mapper.AutoParallel(actor, gpus));
  }
}
BENCHMARK(BM_AutoParallelSearch)->Arg(16)->Arg(64);

void BM_FullDeviceMapping(benchmark::State& state) {
  const int gpus = static_cast<int>(state.range(0));
  const ModelSpec model = ModelSpec::Llama7B();
  for (auto _ : state) {
    DeviceMapper mapper(DataflowModels(RlhfAlgorithm::kPpo, model, model),
                        RlhfWorkloadSpec(), ClusterSpec::WithGpus(gpus));
    benchmark::DoNotOptimize(mapper.Map(gpus));
  }
}
BENCHMARK(BM_FullDeviceMapping)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SimulatedPpoIteration(benchmark::State& state) {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.num_gpus = 16;
  config.real_compute = false;
  RlhfSystemInstance instance = BuildSystem(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.RunIteration());
  }
}
BENCHMARK(BM_SimulatedPpoIteration)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hybridflow

BENCHMARK_MAIN();
