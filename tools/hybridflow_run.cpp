// hybridflow_run: config-driven experiment runner.
//
// Reads a `key = value` config (see configs/*.cfg), builds the requested
// RLHF system on the simulated cluster, runs it, and reports throughput,
// stage breakdowns, learning metrics (when the real data plane is on), and
// optionally a Chrome trace of the execution pattern.
//
// Usage: hybridflow_run <config-file> [key=value overrides...]
//
// Recognized keys (defaults in parentheses):
//   system            hybridflow | deepspeed-chat | openrlhf | nemo (hybridflow)
//   algorithm         ppo | remax | safe-rlhf | grpo (ppo)
//   cluster.gpus      (16)       cluster.gpus_per_node (8)
//   model.actor       7B|13B|34B|70B (7B)     model.critic (same as actor)
//   placement         auto | colocate | standalone | split (auto)
//   workload.global_batch (1024) workload.prompt_len (1024)
//   workload.response_len (1024) workload.updates (8)
//   run.warmup (1)    run.iterations (3)
//   run.real_compute  (false)    run.real_batch (32)    run.seed (1)
//   run.arch          mlp | transformer (mlp) — toy policy architecture
//   run.trace_path    write a Chrome trace JSON of the last iteration
//   run.checkpoint_path  save a final checkpoint (real compute only)
//   rollout.mode      static | continuous (static) — the sim-plane timing
//                     model only (closed-form waves vs per-step replay);
//                     data-plane generation always runs the step loop
//   rollout.policy    fcfs | longest_prefix (fcfs); rollout.block_tokens,
//   rollout.num_blocks, rollout.max_running,
//   rollout.prefill_chunk_tokens (0 = off)
//   rollout.reserve_full_length (false) admit at full-length KV demand
//   kvcache.prefix_cache (false) prefix-sharing KV cache (docs/KVCACHE.md)
//   async_pipeline    (false) one-step-off PPO; requires rollout.mode=continuous
//   async_staleness   (1) staleness-queue depth; 0 degenerates to sync order
//   tensor.threads    (0 = auto) data-plane kernel workers; any value is
//                     bitwise-equivalent (docs/KERNELS.md)
//
// Serving mode (docs/SERVING.md) — selected when `serving.trace` is set;
// replays a synthetic multi-tenant arrival trace through SimulateServing
// instead of running RLHF iterations:
//   serving.trace     poisson | bursty | diurnal — arrival-trace shape
//   serving.rate (6)  serving.duration (30)  serving.max_requests (256)
//   serving.seed (7)  serving.tp (2)         serving.kv_tokens (4096)
//   serving.admission queue | priority | deadline | weighted_fair (queue)
//   serving.expire_overdue (true)  serving.fair_quantum_tokens (256)
//   serving.interactive_share (0.3)  serving.interactive_weight (4.0)
//   serving.ttft_slo (2.0)  serving.tpot_slo (0.5)  — interactive tenant 0
//   serving.requests_path  write the per-request JSONL artifact (hfstat)
//
// A key the selected mode never reads (a misspelling, a retired key, or an
// RLHF key in serving mode) is a config error: the run exits 2 naming it.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/baselines/system_builder.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/config.h"
#include "src/common/strings.h"
#include "src/data/arrival_trace.h"
#include "src/serving/sim.h"
#include "src/sim/topology.h"
#include "src/sim/trace_export.h"

namespace hybridflow {
namespace {

RlhfSystem ParseSystem(const std::string& name) {
  if (name == "hybridflow") {
    return RlhfSystem::kHybridFlow;
  }
  if (name == "deepspeed-chat") {
    return RlhfSystem::kDeepSpeedChat;
  }
  if (name == "openrlhf") {
    return RlhfSystem::kOpenRlhf;
  }
  if (name == "nemo") {
    return RlhfSystem::kNemoAligner;
  }
  std::cerr << "unknown system: " << name << "\n";
  std::exit(2);
}

RlhfAlgorithm ParseAlgorithm(const std::string& name) {
  if (name == "ppo") {
    return RlhfAlgorithm::kPpo;
  }
  if (name == "remax") {
    return RlhfAlgorithm::kRemax;
  }
  if (name == "safe-rlhf") {
    return RlhfAlgorithm::kSafeRlhf;
  }
  if (name == "grpo") {
    return RlhfAlgorithm::kGrpo;
  }
  std::cerr << "unknown algorithm: " << name << "\n";
  std::exit(2);
}

PlacementKind ParsePlacement(const std::string& name) {
  if (name == "auto") {
    return PlacementKind::kAuto;
  }
  if (name == "colocate") {
    return PlacementKind::kColocate;
  }
  if (name == "standalone") {
    return PlacementKind::kStandalone;
  }
  if (name == "split") {
    return PlacementKind::kSplit;
  }
  std::cerr << "unknown placement: " << name << "\n";
  std::exit(2);
}

AdmissionPolicy ParseAdmission(const std::string& name) {
  if (name == "queue") {
    return AdmissionPolicy::kQueueOrder;
  }
  if (name == "priority") {
    return AdmissionPolicy::kPriority;
  }
  if (name == "deadline") {
    return AdmissionPolicy::kDeadline;
  }
  if (name == "weighted_fair") {
    return AdmissionPolicy::kWeightedFair;
  }
  std::cerr << "unknown serving.admission: " << name << "\n";
  std::exit(2);
}

// Exits 2 naming every set key that nothing read, so a misspelt or retired
// key cannot run silently on a default. Call once all of a mode's reads
// are done.
void RejectUnreadKeys(const ConfigMap& config) {
  const std::vector<std::string> unread = config.UnreadKeys();
  if (unread.empty()) {
    return;
  }
  std::cerr << "config error: unknown key(s):";
  for (const std::string& key : unread) {
    std::cerr << " " << key;
  }
  std::cerr << "\n";
  std::exit(2);
}

int RunServing(const ConfigMap& config) {
  TraceShape shape;
  const std::string shape_name = config.GetString("serving.trace");
  if (!ParseTraceShape(shape_name, &shape)) {
    std::cerr << "unknown serving.trace: " << shape_name << "\n";
    std::exit(2);
  }
  ArrivalTraceConfig trace_config;
  trace_config.shape = shape;
  trace_config.rate = config.GetDouble("serving.rate", 6.0);
  trace_config.duration = config.GetDouble("serving.duration", 30.0);
  trace_config.max_requests = config.GetInt("serving.max_requests", 256);
  // Two-tenant mix: tenant 0 is the interactive, SLO-carrying class;
  // tenant 1 is best-effort batch with longer prompts and responses.
  TenantSpec interactive;
  interactive.tenant = 0;
  interactive.share = config.GetDouble("serving.interactive_share", 0.3);
  interactive.priority = 10;
  interactive.ttft_slo = config.GetDouble("serving.ttft_slo", 2.0);
  interactive.tpot_slo = config.GetDouble("serving.tpot_slo", 0.5);
  interactive.prompt_min = 64;
  interactive.prompt_max = 256;
  interactive.new_tokens_min = 16;
  interactive.new_tokens_max = 64;
  TenantSpec batch;
  batch.tenant = 1;
  batch.share = 1.0 - interactive.share;
  batch.prompt_min = 256;
  batch.prompt_max = 1024;
  batch.new_tokens_min = 64;
  batch.new_tokens_max = 256;
  trace_config.tenants = {interactive, batch};
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("serving.seed", 7));
  const std::vector<ArrivalRecord> trace = GenerateArrivalTrace(trace_config, seed);

  RolloutSchedulerConfig policy;
  policy.admission = ParseAdmission(config.GetString("serving.admission", "queue"));
  policy.expire_overdue = config.GetBool("serving.expire_overdue", true);
  policy.fair_quantum_tokens = config.GetInt("serving.fair_quantum_tokens", 256);
  policy.tenant_weights = {{0, config.GetDouble("serving.interactive_weight", 4.0)}, {1, 1.0}};

  const ModelSpec model = ModelSpec::ByName(config.GetString("model.actor", "7B"));
  const int num_gpus = static_cast<int>(config.GetInt("cluster.gpus", 16));
  const PerfModel perf(model, ClusterSpec::WithGpus(num_gpus));
  const int tp = static_cast<int>(config.GetInt("serving.tp", 2));
  const GenParallelConfig gen{1, tp};
  std::vector<DeviceId> devices;
  for (int d = 0; d < tp; ++d) {
    devices.push_back(d);
  }
  const double kv_budget = static_cast<double>(config.GetInt("serving.kv_tokens", 4096)) *
                           perf.KvBytesPerTokenPerGpu(gen);
  const std::string requests_path = config.GetString("serving.requests_path");
  RejectUnreadKeys(config);

  std::cout << StrFormat("serving: %zu requests, trace=%s rate=%.1f/s admission=%s model=%s\n",
                         trace.size(), TraceShapeName(shape), trace_config.rate,
                         config.GetString("serving.admission", "queue").c_str(),
                         model.name.c_str());
  const ServingSimResult result =
      SimulateServing(perf, gen, devices, trace, kv_budget, policy);
  std::cout << StrFormat(
      "RESULT: %lld finished, %lld cancelled, %lld expired in %s; "
      "SLO attainment %lld/%lld, goodput %.0f tok/s\n",
      static_cast<long long>(result.report.finished),
      static_cast<long long>(result.report.cancelled),
      static_cast<long long>(result.report.expired), HumanSeconds(result.sim_seconds).c_str(),
      static_cast<long long>(result.report.slo_attained),
      static_cast<long long>(result.report.requests), result.report.goodput);
  for (const TenantServingStats& tenant : result.report.tenants) {
    std::cout << StrFormat(
        "  tenant %lld: %lld reqs, slo %lld, ttft p50 %s p99 %s, tpot p99 %s, "
        "goodput %.0f tok/s\n",
        static_cast<long long>(tenant.tenant), static_cast<long long>(tenant.requests),
        static_cast<long long>(tenant.slo_attained), HumanSeconds(tenant.ttft.p50).c_str(),
        HumanSeconds(tenant.ttft.p99).c_str(), HumanSeconds(tenant.tpot.p99).c_str(),
        tenant.goodput);
  }
  if (result.kv_leaked_blocks != 0) {
    std::cerr << "KV LEAK: " << result.kv_leaked_blocks << " blocks still resident\n";
    return 1;
  }
  if (!requests_path.empty()) {
    if (WriteRequestRecordsJsonl(requests_path, result.records)) {
      std::cout << "per-request JSONL written to " << requests_path << " (analyze with hfstat)\n";
    } else {
      std::cerr << "failed to write " << requests_path << "\n";
      return 1;
    }
  }
  return 0;
}

int Run(const ConfigMap& config) {
  if (config.Has("serving.trace")) {
    return RunServing(config);
  }
  SystemBuildConfig build;
  build.system = ParseSystem(config.GetString("system", "hybridflow"));
  build.algorithm = ParseAlgorithm(config.GetString("algorithm", "ppo"));
  build.num_gpus = static_cast<int>(config.GetInt("cluster.gpus", 16));
  build.gpus_per_node = static_cast<int>(config.GetInt("cluster.gpus_per_node", 8));
  const std::string actor_name = config.GetString("model.actor", "7B");
  build.actor_model = ModelSpec::ByName(actor_name);
  build.critic_model = ModelSpec::ByName(config.GetString("model.critic", actor_name));
  build.placement = ParsePlacement(config.GetString("placement", "auto"));
  build.workload.global_batch = config.GetInt("workload.global_batch", 1024);
  build.workload.prompt_len = config.GetInt("workload.prompt_len", 1024);
  build.workload.response_len = config.GetInt("workload.response_len", 1024);
  build.workload.updates_per_iteration =
      static_cast<int>(config.GetInt("workload.updates", 8));
  build.real_compute = config.GetBool("run.real_compute", false);
  if (config.GetString("run.arch", "mlp") == "transformer") {
    build.real_arch = PolicyArch::kTransformer;
  }
  build.real_batch = config.GetInt("run.real_batch", 32);
  build.seed = static_cast<uint64_t>(config.GetInt("run.seed", 1));
  const std::string rollout_mode = config.GetString("rollout.mode", "static");
  if (rollout_mode == "continuous") {
    build.rollout.mode = RolloutMode::kContinuous;
  } else if (rollout_mode != "static") {
    std::cerr << "unknown rollout.mode: " << rollout_mode << "\n";
    std::exit(2);
  }
  const std::string rollout_policy = config.GetString("rollout.policy", "fcfs");
  if (rollout_policy == "longest_prefix") {
    build.rollout.policy = RolloutPolicy::kLongestPrefixFirst;
  } else if (rollout_policy != "fcfs") {
    std::cerr << "unknown rollout.policy: " << rollout_policy << "\n";
    std::exit(2);
  }
  build.rollout.block_tokens = config.GetInt("rollout.block_tokens", build.rollout.block_tokens);
  build.rollout.num_blocks = config.GetInt("rollout.num_blocks", build.rollout.num_blocks);
  build.rollout.max_running = config.GetInt("rollout.max_running", build.rollout.max_running);
  build.rollout.prefill_chunk_tokens =
      config.GetInt("rollout.prefill_chunk_tokens", build.rollout.prefill_chunk_tokens);
  build.rollout.prefix_cache = config.GetBool("kvcache.prefix_cache", build.rollout.prefix_cache);
  build.rollout.reserve_full_length =
      config.GetBool("rollout.reserve_full_length", build.rollout.reserve_full_length);
  build.async_pipeline = config.GetBool("async_pipeline", false);
  build.async_staleness = config.GetInt("async_staleness", build.async_staleness);
  build.tensor_threads = static_cast<int>(config.GetInt("tensor.threads", 0));
  const int warmup = static_cast<int>(config.GetInt("run.warmup", 1));
  const int iterations = static_cast<int>(config.GetInt("run.iterations", 3));
  const std::string trace_path = config.GetString("run.trace_path");
  const std::string checkpoint_path = config.GetString("run.checkpoint_path");
  RejectUnreadKeys(config);

  const std::string config_error = ValidateSystemConfig(build);
  if (!config_error.empty()) {
    std::cerr << "config error: " << config_error << "\n";
    std::exit(2);
  }

  std::cout << "system=" << RlhfSystemName(build.system)
            << " algorithm=" << RlhfAlgorithmName(build.algorithm) << " gpus=" << build.num_gpus
            << " actor=" << build.actor_model.name << " critic=" << build.critic_model.name
            << "\n";

  RlhfSystemInstance instance = BuildSystem(build);
  if (!instance.feasible) {
    std::cout << "RESULT: infeasible (models do not fit this cluster)\n";
    return 1;
  }
  if (build.system == RlhfSystem::kHybridFlow) {
    std::cout << "mapping: " << instance.mapping.sets.size() << " colocated set(s), estimated "
              << HumanSeconds(instance.mapping.est_iteration_seconds) << "/iter\n";
    for (const auto& [name, model] : instance.mapping.models) {
      std::cout << "  " << name << ": p-t-d " << model.train.ToString()
                << (model.backend == WorkerBackend::k3dParallel ? " (3D)" : " (ZeRO)");
      if (name == "actor") {
        std::cout << ", generation " << model.gen.ToString();
      }
      std::cout << "\n";
    }
  }

  for (int i = 0; i < warmup; ++i) {
    instance.RunIteration();
  }
  instance.controller->cluster().ClearTrace();
  IterationMetrics last;
  double throughput_sum = 0.0;
  for (int i = 0; i < iterations; ++i) {
    last = instance.RunIteration();
    throughput_sum += last.throughput_tokens_per_sec;
    std::cout << StrFormat("iter %2d: %s, %.0f tok/s", i,
                           HumanSeconds(last.iteration_seconds).c_str(),
                           last.throughput_tokens_per_sec);
    if (build.real_compute) {
      std::cout << StrFormat(", reward %.3f, toxicity %.3f", last.mean_reward,
                             last.toxicity_rate);
    }
    if (build.async_pipeline) {
      std::cout << StrFormat(", overlap %.0f%%, staleness %lld", 100.0 * last.overlap_fraction,
                             static_cast<long long>(last.async_staleness));
    }
    std::cout << "\n";
  }
  // Async pipeline: flush the staleness queue so every generated rollout is
  // trained on (the final iterations run without issuing new generations).
  while (instance.program->pending_experience() > 0) {
    const IterationMetrics drained = instance.program->DrainIteration();
    std::cout << StrFormat("drain:   %s, staleness %lld, %lld batch(es) left\n",
                           HumanSeconds(drained.iteration_seconds).c_str(),
                           static_cast<long long>(drained.async_staleness),
                           static_cast<long long>(drained.async_queue_depth));
  }
  std::cout << StrFormat("RESULT: mean throughput %.0f tokens/sec, utilization %.0f%%\n",
                         throughput_sum / iterations,
                         100.0 * MeanUtilization(instance.controller->cluster()));
  std::cout << "busy time by stage:";
  for (const auto& [category, seconds] : last.busy_by_category) {
    std::cout << " " << category << "=" << HumanSeconds(seconds);
  }
  std::cout << " (GPU-seconds, last iteration)\n";

  if (build.rollout.mode == RolloutMode::kContinuous) {
    const RolloutStats& sim = instance.actor->last_rollout_sim_stats();
    std::cout << StrFormat(
        "rollout (sim plane): %lld steps, %lld admissions, %lld preemptions, peak batch %lld, "
        "KV peak %.0f%%\n",
        static_cast<long long>(sim.steps), static_cast<long long>(sim.admissions),
        static_cast<long long>(sim.preemptions), static_cast<long long>(sim.max_running_batch),
        100.0 * sim.kv_peak_utilization);
    if (build.rollout.prefill_chunk_tokens > 0) {
      std::cout << StrFormat(
          "chunked prefill: %lld partial chunk(s), max %lld prefill tokens/step (budget %lld)\n",
          static_cast<long long>(sim.prefill_chunks),
          static_cast<long long>(sim.max_prefill_tokens_step),
          static_cast<long long>(build.rollout.prefill_chunk_tokens));
    }
  }

  if (!trace_path.empty()) {
    if (WriteChromeTrace(instance.controller->cluster(), trace_path)) {
      std::cout << "trace written to " << trace_path << " (open in chrome://tracing)\n";
    } else {
      std::cerr << "failed to write trace to " << trace_path << "\n";
    }
  }
  if (!checkpoint_path.empty() && build.real_compute) {
    CheckpointManager manager;
    std::map<std::string, const PolicyNet*> nets;
    nets["actor"] = &instance.actor->net();
    if (instance.critic != nullptr) {
      nets["critic"] = &instance.critic->net();
    }
    manager.Capture(warmup + iterations, 0, nets);
    if (manager.SaveToFile(checkpoint_path)) {
      std::cout << "checkpoint written to " << checkpoint_path << "\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace hybridflow

int main(int argc, char** argv) {
  using namespace hybridflow;
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " <config-file> [key=value ...]\n";
    return 2;
  }
  ConfigMap config;
  std::string error;
  if (!config.ParseFile(argv[1], &error)) {
    std::cerr << "config error: " << error << "\n";
    return 2;
  }
  for (int i = 2; i < argc; ++i) {
    if (!config.ParseString(argv[i], &error)) {
      std::cerr << "override error in '" << argv[i] << "': " << error << "\n";
      return 2;
    }
  }
  return Run(config);
}
