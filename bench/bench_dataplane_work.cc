// Deterministic work counts of one data-plane PPO iteration.
//
// Runs one fixed-seed HybridFlow PPO iteration with real toy-transformer
// numerics (70B models on 128 simulated GPUs, Algorithm 1 placement,
// 256 prompts, continuous rollout, tensor.threads = 1) and records how
// much kernel work it issued: per `op` label, the number of kernel calls
// (the tensor.kernel_us histogram count) and the flop-equivalents
// (tensor.flops_total), plus the simulated rollout step count, the
// autograd nodes the iteration wired (tensor.autograd_nodes_total: the
// training ops' graphs only, since every inference op runs under a
// NoGradScope), the rows of every per-rank input batch the
// transfer-protocol layer builds (protocol.shard_rows) and the
// iteration's learning outputs as C99 hex floats (%a), so a data-plane
// refactor that must leave numerics bitwise unchanged is checked to the
// last bit.
//
// Wall time is deliberately absent: every number here depends only on
// the program, never on the thread count, the SIMD tier or the host, so
// BENCH_dataplane_work.json is byte-checked by the bench_golden ctest. A
// change that alters the kernel work of an iteration shows up as an
// exact diff of that file.
//
// Emits BENCH_dataplane_work.json: one row per op label, then the
// summary rows "iteration", "transfer" and "outputs".

#include <cstdio>
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

// Sum over every label set of the counter `name` in the global registry.
double CounterTotal(const std::string& name) {
  std::istringstream lines(MetricsRegistry::Global().ToJsonLines());
  double total = 0.0;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"name\":\"" + name + "\"") != std::string::npos) {
      total += NumberAfter(line, "value");
    }
  }
  return total;
}

std::string HexFloat(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%a", value);
  return text;
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
  const double rows_before = CounterTotal("protocol.shard_rows");
  const double nodes_before = CounterTotal("tensor.autograd_nodes_total");
  const IterationMetrics metrics = system.RunIteration();
  const double transfer_rows = CounterTotal("protocol.shard_rows") - rows_before;
  const double autograd_nodes = CounterTotal("tensor.autograd_nodes_total") - nodes_before;
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
      .Number("sim_steps", static_cast<double>(sim_steps))
      .Number("autograd_nodes", autograd_nodes);
  report.AddRow().Text("op", "transfer").Number("transfer_rows", transfer_rows);
  report.AddRow()
      .Text("op", "outputs")
      .Text("actor_loss", HexFloat(metrics.actor_loss))
      .Text("critic_loss", HexFloat(metrics.critic_loss))
      .Text("mean_reward", HexFloat(metrics.mean_reward))
      .Text("mean_kl", HexFloat(metrics.mean_kl));
  std::cout << "one PPO iteration: " << static_cast<int64_t>(total.calls) << " kernel calls, "
            << static_cast<int64_t>(total.flops) << " flops, " << sim_steps << " sim steps, "
            << static_cast<int64_t>(transfer_rows) << " transfer rows\n";
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
