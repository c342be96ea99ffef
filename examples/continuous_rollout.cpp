// Continuous-batching rollout vs the static wave model, end to end.
//
// Builds the same HybridFlow PPO system twice — once timed by the
// closed-form wave model (rollout.mode = static) and once by the per-step
// replay (rollout.mode = continuous) — and compares iteration time,
// generation time, and the scheduler's performance-plane stats (steps,
// preemptions, KV pressure). The mode picks only the sim-plane timing
// model: the data plane runs the same step loop either way, so with real
// compute on both produce identical tokens. See docs/ROLLOUT.md.
//
// Run: ./continuous_rollout [iterations] [gpus]

#include <cstdlib>
#include <iostream>

#include "src/baselines/system_builder.h"
#include "src/common/strings.h"

int main(int argc, char** argv) {
  using namespace hybridflow;
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 3;
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 16;

  std::cout << "PPO, 7B models, " << gpus
            << " GPUs: static wave model vs continuous batching\n\n";
  std::cout << StrFormat("%-11s | %10s | %10s | %16s\n", "rollout", "iter time", "generation",
                         "throughput tok/s");

  for (const RolloutMode mode : {RolloutMode::kStatic, RolloutMode::kContinuous}) {
    SystemBuildConfig config;
    config.system = RlhfSystem::kHybridFlow;
    config.algorithm = RlhfAlgorithm::kPpo;
    config.num_gpus = gpus;
    config.real_compute = true;
    config.real_batch = 16;
    config.seed = 7;
    config.workload.global_batch = 256;
    config.workload.prompt_len = 1024;
    config.workload.response_len = 512;
    config.rollout.mode = mode;

    RlhfSystemInstance instance = BuildSystem(config);
    if (!instance.feasible) {
      std::cout << "models do not fit this cluster\n";
      return 1;
    }
    IterationMetrics metrics = instance.RunAveraged(1, iterations);
    const bool continuous = mode == RolloutMode::kContinuous;
    std::cout << StrFormat("%-11s | %10s | %10s | %16.0f\n",
                           continuous ? "continuous" : "static",
                           HumanSeconds(metrics.iteration_seconds).c_str(),
                           HumanSeconds(metrics.generation_seconds).c_str(),
                           metrics.throughput_tokens_per_sec);
    if (continuous) {
      const RolloutStats& sim = instance.actor->last_rollout_sim_stats();
      std::cout << StrFormat(
          "\nscheduler (sim plane): %lld steps, %lld admissions, %lld preemptions\n"
          "peak running batch %lld, KV high water %lld blocks (%.0f%% of budget)\n",
          static_cast<long long>(sim.steps), static_cast<long long>(sim.admissions),
          static_cast<long long>(sim.preemptions),
          static_cast<long long>(sim.max_running_batch),
          static_cast<long long>(sim.kv_high_water_blocks), 100.0 * sim.kv_peak_utilization);
      const RolloutStats data = instance.actor->rollout_stats();
      std::cout << StrFormat(
          "engine (data plane, toy scale): %lld sequences, %lld steps, %lld preemptions\n",
          static_cast<long long>(data.sequences), static_cast<long long>(data.steps),
          static_cast<long long>(data.preemptions));
    }
  }
  return 0;
}
