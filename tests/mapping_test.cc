#include <gtest/gtest.h>

#include "src/baselines/system_builder.h"
#include "src/mapping/device_mapper.h"

namespace hybridflow {
namespace {

DeviceMapper MakeMapper(RlhfAlgorithm algorithm, const ModelSpec& model,
                        const RlhfWorkloadSpec& workload = RlhfWorkloadSpec()) {
  return DeviceMapper(DataflowModels(algorithm, model, model), workload,
                      ClusterSpec::WithGpus(8));
}

TEST(DeviceMapperTest, PpoPlacementCountIsBellNumber) {
  // 4 models -> Bell(4) = 15 placements (§6).
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8);
  EXPECT_EQ(result.placements_examined, 15);
}

TEST(DeviceMapperTest, SafeRlhfPlacementCountIsBellFive) {
  // 5 models -> Bell(5) = 52 placements.
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kSafeRlhf, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8);
  EXPECT_EQ(result.placements_examined, 52);
}

TEST(DeviceMapperTest, CanonicalPlacementsExamineOne) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  for (PlacementKind kind :
       {PlacementKind::kColocate, PlacementKind::kStandalone, PlacementKind::kSplit}) {
    MappingResult result = mapper.Map(8, kind);
    EXPECT_EQ(result.placements_examined, 1) << PlacementKindName(kind);
  }
}

TEST(DeviceMapperTest, ColocatePutsEverythingInOneSet) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8, PlacementKind::kColocate);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.sets.size(), 1u);
  EXPECT_EQ(result.sets[0].gpus, 8);
  EXPECT_EQ(result.sets[0].model_names.size(), 4u);
}

TEST(DeviceMapperTest, StandaloneGivesEveryModelItsOwnSet) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8, PlacementKind::kStandalone);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.sets.size(), 4u);
  int total = 0;
  for (const ColocatedSetResult& set : result.sets) {
    total += set.gpus;
  }
  EXPECT_EQ(total, 8);
}

TEST(DeviceMapperTest, SplitPairsActorWithReference) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(16, PlacementKind::kSplit);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.sets.size(), 2u);
  const int actor_set = result.SetOf("actor");
  EXPECT_EQ(result.SetOf("reference"), actor_set);
  EXPECT_NE(result.SetOf("critic"), actor_set);
  EXPECT_NE(result.SetOf("reward"), actor_set);
}

TEST(DeviceMapperTest, AutoIsNeverWorseThanCanonicalPlacements) {
  // Algorithm 1 searches a superset of the canonical placements, so its
  // estimate must be at least as good.
  for (const ModelSpec& model : {ModelSpec::Llama7B(), ModelSpec::Llama13B()}) {
    DeviceMapper mapper(DataflowModels(RlhfAlgorithm::kPpo, model, model),
                        RlhfWorkloadSpec(), ClusterSpec::WithGpus(16));
    MappingResult with_auto = mapper.Map(16, PlacementKind::kAuto);
    ASSERT_TRUE(with_auto.feasible);
    for (PlacementKind kind :
         {PlacementKind::kColocate, PlacementKind::kStandalone, PlacementKind::kSplit}) {
      MappingResult canonical = mapper.Map(16, kind);
      if (canonical.feasible) {
        EXPECT_LE(with_auto.est_iteration_seconds,
                  canonical.est_iteration_seconds * (1.0 + 1e-9))
            << model.name << " " << PlacementKindName(kind);
      }
    }
  }
}

TEST(DeviceMapperTest, InfeasibleWhenModelCannotFit) {
  // 70B PPO on 2 GPUs: 4 models of training state cannot fit.
  DeviceMapper mapper(DataflowModels(RlhfAlgorithm::kPpo, ModelSpec::Llama70B(),
                                     ModelSpec::Llama70B()),
                      RlhfWorkloadSpec(), ClusterSpec::WithGpus(2));
  MappingResult result = mapper.Map(2);
  EXPECT_FALSE(result.feasible);
}

TEST(DeviceMapperTest, CacheEliminatesRepeatedSimulations) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult first = mapper.Map(8);
  const int64_t simulations_after_first = first.simulations;
  MappingResult second = mapper.Map(8);
  // A second identical search is almost entirely cache hits.
  EXPECT_LT(second.simulations - simulations_after_first,
            simulations_after_first / 4);
  EXPECT_GT(second.cache_hits, first.cache_hits);
}

TEST(DeviceMapperTest, AutoParallelRespectsMemory) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama70B());
  MappedModelDesc actor{"actor", ModelSpec::Llama70B(), true, false, true};
  ModelMapping mapping = mapper.AutoParallel(actor, 32);
  ASSERT_TRUE(mapping.feasible);
  // 18 B/param * 69e9 / mp <= 0.85 * 80 GB -> mp >= ~19.
  EXPECT_GE(mapping.train.model_parallel_size(), 19);
}

TEST(DeviceMapperTest, AutoParallelPrefersSmallerGenTp) {
  // §8.4: generation runs best with a smaller TP size than training.
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappedModelDesc actor{"actor", ModelSpec::Llama7B(), true, false, true};
  ModelMapping mapping = mapper.AutoParallel(actor, 16);
  ASSERT_TRUE(mapping.feasible);
  EXPECT_LE(mapping.gen.tp * mapping.gen.pp, mapping.train.model_parallel_size());
}

TEST(DeviceMapperTest, MinAllocGrowsWithModelSize) {
  DeviceMapper small = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  DeviceMapper big(DataflowModels(RlhfAlgorithm::kPpo, ModelSpec::Llama70B(),
                                  ModelSpec::Llama70B()),
                   RlhfWorkloadSpec(), ClusterSpec::WithGpus(128));
  EXPECT_LE(small.MinAlloc({0}, 8), 4);
  EXPECT_GT(big.MinAlloc({0}, 128), 8);
}

TEST(DeviceMapperTest, ReportsSearchStatistics) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8);
  EXPECT_GT(result.simulations, 0);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.est_iteration_seconds, 0.0);
}

TEST(DeviceMapperTest, SetsCoverDisjointDeviceRanges) {
  DeviceMapper mapper = MakeMapper(RlhfAlgorithm::kPpo, ModelSpec::Llama7B());
  MappingResult result = mapper.Map(8, PlacementKind::kStandalone);
  ASSERT_TRUE(result.feasible);
  int expected_first = 0;
  for (const ColocatedSetResult& set : result.sets) {
    EXPECT_EQ(set.first_device, expected_first);
    expected_first += set.gpus;
  }
  EXPECT_EQ(expected_first, 8);
}

TEST(DeviceMapperTest, MapperAndBuilderAgreeOnRemax) {
  // The actor descriptor carries ReMax's two generation passes, so a mapper
  // built from the dataflow with default options prices what BuildSystem
  // maps and runs.
  SystemBuildConfig config;
  config.algorithm = RlhfAlgorithm::kRemax;
  config.num_gpus = 16;
  const RlhfSystemInstance system = BuildSystem(config);
  ASSERT_TRUE(system.feasible);
  DeviceMapper mapper(DataflowModels(config.algorithm, config.actor_model, config.critic_model),
                      config.workload,
                      ClusterSpec::WithGpus(config.num_gpus, config.gpus_per_node));
  const MappingResult result = mapper.Map(config.num_gpus);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.est_iteration_seconds, system.mapping.est_iteration_seconds);
  ASSERT_EQ(result.sets.size(), system.mapping.sets.size());
  for (size_t s = 0; s < result.sets.size(); ++s) {
    EXPECT_EQ(result.sets[s].model_names, system.mapping.sets[s].model_names);
    EXPECT_EQ(result.sets[s].gpus, system.mapping.sets[s].gpus);
    EXPECT_EQ(result.sets[s].first_device, system.mapping.sets[s].first_device);
  }
  ASSERT_EQ(result.models.size(), system.mapping.models.size());
  for (const auto& [name, mapping] : result.models) {
    const ModelMapping& built = system.mapping.models.at(name);
    EXPECT_EQ(mapping.backend, built.backend) << name;
    EXPECT_EQ(mapping.train, built.train) << name;
    EXPECT_EQ(mapping.gen, built.gen) << name;
    for (int stage = 0; stage < kNumStages; ++stage) {
      EXPECT_EQ(mapping.stage_seconds[stage], built.stage_seconds[stage]) << name;
    }
  }
}

}  // namespace
}  // namespace hybridflow
