// Deterministic work counts of one data-plane PPO iteration.
//
// Runs one fixed-seed HybridFlow PPO iteration with real toy-transformer
// numerics (70B models on 128 simulated GPUs, Algorithm 1 placement,
// 256 prompts, continuous rollout, tensor.threads = 1) and records how
// much kernel work it issued: per `op` label, the number of kernel calls
// (the tensor.kernel_us histogram count) and the flop-equivalents
// (tensor.flops_total), plus the simulated rollout step count.
//
// Wall time is deliberately absent: every number here depends only on
// the program, never on the thread count, the SIMD tier or the host, so
// BENCH_dataplane_work.json is byte-checked by the bench_golden ctest. A
// change that alters the kernel work of an iteration shows up as an
// exact diff of that file.
//
// Emits BENCH_dataplane_work.json: one row per op label, then one
// summary row (op "iteration").

#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "src/baselines/system_builder.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"

namespace hybridflow {
namespace {

struct OpWork {
  double calls = 0.0;
  double flops = 0.0;
};

// The `"key":<number>` value on one registry JSON line (0 when absent).
double NumberAfter(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  return at == std::string::npos ? 0.0 : std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

// Per-op kernel calls and flops currently in the global registry.
std::map<std::string, OpWork> SnapshotKernelWork() {
  std::map<std::string, OpWork> work;
  std::istringstream lines(MetricsRegistry::Global().ToJsonLines());
  const std::string op_key = "\"labels\":{\"op\":\"";
  std::string line;
  while (std::getline(lines, line)) {
    const bool calls = line.find("\"name\":\"tensor.kernel_us\"") != std::string::npos;
    const bool flops = line.find("\"name\":\"tensor.flops_total\"") != std::string::npos;
    const size_t op_at = line.find(op_key);
    if ((!calls && !flops) || op_at == std::string::npos) {
      continue;
    }
    const size_t begin = op_at + op_key.size();
    OpWork& op = work[line.substr(begin, line.find('"', begin) - begin)];
    if (calls) {
      op.calls = NumberAfter(line, "count");
    } else {
      op.flops = NumberAfter(line, "value");
    }
  }
  return work;
}

SystemBuildConfig PpoDataplaneConfig() {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = RlhfAlgorithm::kPpo;
  config.num_gpus = 128;
  config.actor_model = ModelSpec::Llama70B();
  config.critic_model = ModelSpec::Llama70B();
  config.placement = PlacementKind::kAuto;
  config.real_compute = true;
  config.real_batch = 256;
  config.real_arch = PolicyArch::kTransformer;
  config.seed = 1;
  config.rollout.mode = RolloutMode::kContinuous;
  config.tensor_threads = 1;
  return config;
}

int Main() {
  RlhfSystemInstance system = BuildSystem(PpoDataplaneConfig());
  if (!system.feasible) {
    std::cerr << "infeasible configuration\n";
    return 1;
  }
  const std::map<std::string, OpWork> before = SnapshotKernelWork();
  system.RunIteration();
  const int64_t sim_steps = system.actor->last_rollout_sim_stats().steps;

  BenchReport report("dataplane_work");
  OpWork total;
  for (const auto& [op, after] : SnapshotKernelWork()) {
    const auto prior = before.find(op);
    const OpWork delta{after.calls - (prior == before.end() ? 0.0 : prior->second.calls),
                       after.flops - (prior == before.end() ? 0.0 : prior->second.flops)};
    if (delta.calls == 0.0) {
      continue;
    }
    report.AddRow().Text("op", op).Number("calls", delta.calls).Number("flops", delta.flops);
    // Kernel calls count tensor ops only (as perfbench's
    // tensor.kernel_calls does); flops include the optimizer's.
    if (op != "adam_step") {
      total.calls += delta.calls;
    }
    total.flops += delta.flops;
  }
  report.AddRow()
      .Text("op", "iteration")
      .Number("kernel_calls", total.calls)
      .Number("flops", total.flops)
      .Number("sim_steps", static_cast<double>(sim_steps));
  std::cout << "one PPO iteration: " << static_cast<int64_t>(total.calls) << " kernel calls, "
            << static_cast<int64_t>(total.flops) << " flops, " << sim_steps << " sim steps\n";
  if (!report.WriteJson()) {
    std::cerr << "failed to write " << report.FilePath() << "\n";
    return 1;
  }
  std::cout << "wrote " << report.FilePath() << " (" << report.size() << " rows)\n";
  return 0;
}

}  // namespace
}  // namespace hybridflow

int main() { return hybridflow::Main(); }
